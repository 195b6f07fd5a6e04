"""Command-line driver: seed, embed, rank-outliers, evaluate.

Every option can also come from a `--config` file of `key=value` lines (keys
are the long option names without the leading dashes); explicit command-line
values win. All randomness stems from `--seed`, so rerunning a subcommand
with the same inputs and seed reproduces its output files byte for byte.

Exit codes: 0 success, 1 file/parse problems, 2 bad configuration or
mismatched inputs, 3 numeric failure during optimization.
"""

import os
import sys

from . import __version__
from .core import HyperParams, check_combine_weights, default_dim, final_outlier_score, fit
from .errors import ConfigError, NumericError, ParseError
from .evaluation import evaluate_all, rank_nodes
from .network import (EmbeddingResult, _data_lines, load_embedding_tsv, load_network,
                      load_scores_tsv, save_network, save_result)
from .seeding import SeedingPlan, save_truth, seed_outliers, load_truth

_REQ = object()


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_weights(s: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated weights")
    return tuple(float(p) for p in parts)


def _parse_splits(s: str) -> list[int]:
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:step percentages")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or start > stop or not 0 < start < 100 or not 0 < stop < 100:
        raise ValueError(f"bad split schedule {s!r}")
    return list(range(start, stop + 1, step))


# name -> (converter, default, help); _REQ marks required options
_SEED_OPTS = {
    "edges": (str, _REQ, "edge list file"),
    "attrs": (str, _REQ, "attribute file"),
    "labels": (str, _REQ, "label file"),
    "out": (str, _REQ, "output directory"),
    "fraction": (float, 0.05, "fraction of nodes to plant (default 0.05)"),
    "band": (float, 0.10, "relative degree band around the class mean (default 0.10)"),
    "seed": (int, 0, "random seed (default 0)"),
}

_EMBED_OPTS = {
    "edges": (str, _REQ, "edge list file"),
    "attrs": (str, _REQ, "attribute file"),
    "labels": (str, None, "label file (enables the default embedding width)"),
    "out": (str, _REQ, "output directory"),
    "k": (int, None, "embedding width (default: 3 x number of classes)"),
    "iters": (int, 5, "optimization rounds (default 5)"),
    "attr-weight": (float, None, "attribute loss weight (default: calibrated)"),
    "dis-weight": (float, None, "disagreement loss weight (default: calibrated)"),
    "budget": (float, 1.0, "total outlier-score budget (default 1)"),
    "score-floor": (float, 1e-8, "smallest allowed outlier score (default 1e-8)"),
    "combine-weights": (_parse_weights, (0.25, 0.5, 0.25),
                        "w1,w2,w3 for the combined score (default 0.25,0.5,0.25)"),
    "loss-tol": (float, None, "relative loss-change early-stop threshold"),
    "init-iters": (int, 200, "initialization updates per factor, in passes of 3, "
                             "rounded up (default 200)"),
    "seed": (int, 0, "random seed (default 0)"),
}

_RANK_OPTS = {
    "scores": (str, _REQ, "scores.tsv written by embed"),
    "out": (str, _REQ, "output directory"),
    "weights": (_parse_weights, None,
                "w1,w2,w3 to recombine the component scores (default: use the "
                "stored combined column)"),
}

_EVAL_OPTS = {
    "edges": (str, _REQ, "edge list file of the seeded dataset"),
    "attrs": (str, _REQ, "attribute file of the seeded dataset"),
    "labels": (str, _REQ, "label file of the seeded dataset"),
    "embedding": (str, _REQ, "embedding.tsv written by embed"),
    "scores": (str, _REQ, "scores.tsv written by embed"),
    "truth": (str, _REQ, "outliers.tsv written by seed"),
    "out": (str, _REQ, "output directory"),
    "splits": (_parse_splits, [10, 20, 30, 40, 50],
               "train-percent schedule start:stop:step (default 10:50:10)"),
    "reps": (int, 10, "splits per train percentage (default 10)"),
    "weights": (_parse_weights, None,
                "w1,w2,w3 to recombine the component scores for ranking"),
    "exclude-outliers": (_parse_bool, False,
                         "drop planted nodes from classification/clustering"),
    "seed": (int, 0, "random seed (default 0)"),
}

_SUBCOMMANDS = {
    "seed": (_SEED_OPTS, "plant ground-truth outliers into a labeled network"),
    "embed": (_EMBED_OPTS, "fit the joint factorization and write the embedding"),
    "rank-outliers": (_RANK_OPTS, "rank nodes by combined outlier score"),
    "evaluate": (_EVAL_OPTS, "score an embedding against planted ground truth"),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="oaembed",
        description="Outlier-aware embedding of attributed networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (opts, help_text) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for opt, (_conv, default, opt_help) in opts.items():
            if opt == "exclude-outliers":
                sub.add_argument(f"--{opt}", action="store_const", const="true",
                                 default=None, help=opt_help)
            else:
                extra = " (required)" if default is _REQ else ""
                sub.add_argument(f"--{opt}", type=str, default=None,
                                 help=opt_help + extra)
        sub.add_argument("--config", type=str, default=None,
                         help="key=value file supplying defaults for any option")
    return parser


def _read_config(path: str) -> dict[str, str]:
    kv = {}
    for lineno, line in _data_lines(path):
        key, sep, val = line.partition("=")
        if not sep:
            raise ParseError("expected key=value", path, lineno)
        kv[key.strip()] = val.strip()
    return kv


def _resolve(ns, opts: dict) -> dict:
    cfg = _read_config(ns.config) if ns.config else {}
    unknown = sorted(set(cfg) - set(opts))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for name, (conv, default, _help) in opts.items():
        raw = getattr(ns, name.replace("-", "_"))
        if raw is None:
            raw = cfg.get(name)
        if raw is None:
            if default is _REQ:
                raise ConfigError(f"missing required option --{name}")
            out[name] = default
        else:
            try:
                out[name] = conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for --{name}: {raw!r} ({exc})") from exc
    return out


def _require_file(path: str, what: str):
    if not os.path.isfile(path):
        raise ParseError(f"{what} not found: {path}", path)


def cmd_seed(opt: dict) -> int:
    for key in ("edges", "attrs", "labels"):
        _require_file(opt[key], f"--{key} file")
    net = load_network(opt["edges"], opt["attrs"], opt["labels"])
    plan = SeedingPlan(total_fraction=opt["fraction"], degree_band=opt["band"],
                       seed=opt["seed"])
    seeded = seed_outliers(net, plan)
    save_network(seeded.network, opt["out"])
    save_truth(seeded, os.path.join(opt["out"], "outliers.tsv"))
    aug = seeded.network
    print("nodes\tedges\tclasses\tattributes")
    print(f"{aug.n_nodes}\t{aug.n_edges}\t{aug.n_classes}\t{aug.n_attrs}")
    print(f"planted\t{len(seeded.outlier_ids)}")
    return 0


def cmd_embed(opt: dict) -> int:
    _require_file(opt["edges"], "--edges file")
    _require_file(opt["attrs"], "--attrs file")
    if opt["labels"] is not None:
        _require_file(opt["labels"], "--labels file")
    net = load_network(opt["edges"], opt["attrs"], opt["labels"])
    dim = opt["k"] if opt["k"] is not None else default_dim(net)
    hp = HyperParams(dim=dim, attr_weight=opt["attr-weight"],
                     dis_weight=opt["dis-weight"], budget=opt["budget"],
                     iters=opt["iters"], score_floor=opt["score-floor"],
                     combine_weights=opt["combine-weights"],
                     seed=opt["seed"], init_iters=opt["init-iters"],
                     loss_tol=opt["loss-tol"])
    _model, _scores, result, diag = fit(net, hp)
    save_result(result, opt["out"])
    for note in diag.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"k\t{dim}")
    for i, v in enumerate(result.loss_trace, 1):
        print(f"iter\t{i}\tloss\t{v!r}")
    return 0


def cmd_rank_outliers(opt: dict) -> int:
    _require_file(opt["scores"], "--scores file")
    names, comps, combined = load_scores_tsv(opt["scores"])
    if opt["weights"] is not None:
        check_combine_weights(opt["weights"], "--weights")
        combined = final_outlier_score(comps, opt["weights"])
    order = rank_nodes(combined)
    os.makedirs(opt["out"], exist_ok=True)
    path = os.path.join(opt["out"], "ranked.tsv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank\tnode\tscore\n")
        for rank, i in enumerate(order, 1):
            fh.write(f"{rank}\t{names[i]}\t{float(combined[i])!r}\n")
    print(f"ranked\t{len(order)}")
    return 0


def cmd_evaluate(opt: dict) -> int:
    for key in ("edges", "attrs", "labels", "embedding", "scores", "truth"):
        _require_file(opt[key], f"--{key} file")
    net = load_network(opt["edges"], opt["attrs"], opt["labels"])
    emb_names, emb = load_embedding_tsv(opt["embedding"])
    score_names, comps, combined = load_scores_tsv(opt["scores"])
    if tuple(emb_names) != net.node_names:
        raise ConfigError("embedding nodes do not match the dataset node set")
    if tuple(score_names) != net.node_names:
        raise ConfigError("scores nodes do not match the dataset node set")
    if opt["weights"] is not None:
        check_combine_weights(opt["weights"], "--weights")
        combined = final_outlier_score(comps, opt["weights"])

    index = {name: i for i, name in enumerate(net.node_names)}
    truth_ids = []
    for name, _kind in load_truth(opt["truth"]):
        if name not in index:
            raise ConfigError(f"truth node {name!r} is not in the dataset")
        truth_ids.append(index[name])

    result = EmbeddingResult(embedding=emb, outlier_scores=combined,
                             component_scores=comps, loss_trace=[],
                             node_names=net.node_names)
    report = evaluate_all(net, result, truth_ids, splits=opt["splits"],
                          reps=opt["reps"], seed=opt["seed"],
                          exclude_outliers=opt["exclude-outliers"])
    os.makedirs(opt["out"], exist_ok=True)
    with open(os.path.join(opt["out"], "report.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(report.to_json())
    with open(os.path.join(opt["out"], "report.tsv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(report.to_tsv())
    print(report.to_tsv(), end="")
    return 0


_HANDLERS = {
    "seed": cmd_seed,
    "embed": cmd_embed,
    "rank-outliers": cmd_rank_outliers,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    try:
        opts = _resolve(ns, _SUBCOMMANDS[ns.subcommand][0])
        return _HANDLERS[ns.subcommand](opts)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
