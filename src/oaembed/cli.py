"""Command-line driver: seed, embed, rank-outliers, evaluate.

Each option is declared once, with the name of the library parameter it
sets (`--k` is `HyperParams.dim`, `--fraction` `SeedingPlan.total_fraction`,
`--band` `SeedingPlan.degree_band`). An option that is not given is not
passed on, so every default is the library's own (`SeedingPlan`,
`HyperParams`, `evaluate_all`), and `--help` reads it from there.
`--exclude-outliers[=BOOL]` alone means true.

Every option can also come from a `--config` file of `key=value` lines (keys
are the long option names without the leading dashes). Each line is read as
`--key=value` ahead of the command line's options, so explicit command-line
values win. All randomness stems from `--seed`, so rerunning a subcommand
with the same inputs and seed reproduces its output files byte for byte.

Exit codes: 0 success, 1 file/parse problems, 2 bad configuration or
mismatched inputs, 3 numeric failure during optimization.
"""

import argparse
import inspect
import os
import sys
from itertools import chain

from . import __version__
from .core import HyperParams, check_combine_weights, default_dim, final_outlier_score, fit
from .errors import ConfigError, NumericError, ParseError
from .evaluation import evaluate_all, rank_nodes
from .network import (EmbeddingResult, _data_lines, _write_lines, load_embedding_tsv,
                      load_network, load_scores_tsv, save_network, save_result)
from .seeding import SeedingPlan, save_truth, seed_outliers, load_truth


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _parse_weights(s: str) -> tuple[float, float, float]:
    try:
        w = tuple(float(p) for p in s.split(","))
        check_combine_weights(w, "weights")
    except ValueError as exc:  # ConfigError included
        raise argparse.ArgumentTypeError(str(exc)) from None
    return w


def _parse_splits(s: str) -> list[int]:
    try:
        start, stop, step = (int(p) for p in s.split(":"))
        if step <= 0 or start > stop or not 0 < start < 100 or not 0 < stop < 100:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step percentages in (0, 100), got {s!r}") from None
    return list(range(start, stop + 1, step))


def _require_files(**paths):
    """Name the first missing input file, in option order, before any is read."""
    for key, path in paths.items():
        if path is not None and not os.path.isfile(path):
            raise ParseError(f"--{key} file not found: {path}", path)


def _load_scores(path: str, weights=None):
    """scores.tsv as (names, components, combined); given weights, the
    combined column is recomputed from the components as fit computes it."""
    names, comps, combined = load_scores_tsv(path)
    if weights is not None:
        combined = final_outlier_score(comps, weights)
    return names, comps, combined


def cmd_seed(edges, attrs, labels, out, **plan) -> int:
    _require_files(edges=edges, attrs=attrs, labels=labels)
    net = load_network(edges, attrs, labels)
    seeded = seed_outliers(net, SeedingPlan(**plan))
    save_network(seeded.network, out)
    save_truth(seeded, os.path.join(out, "outliers.tsv"))
    aug = seeded.network
    print("nodes\tedges\tclasses\tattributes")
    print(f"{aug.n_nodes}\t{aug.n_edges}\t{aug.n_classes}\t{aug.n_attrs}")
    print(f"planted\t{len(seeded.outlier_ids)}")
    return 0


def cmd_embed(edges, attrs, out, labels=None, **params) -> int:
    _require_files(edges=edges, attrs=attrs, labels=labels)
    net = load_network(edges, attrs, labels)
    dim = params.pop("dim", None)
    hp = HyperParams(dim=default_dim(net) if dim is None else dim, **params)
    _model, _scores, result, diag = fit(net, hp)
    save_result(result, out)
    for note in diag.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"k\t{hp.dim}")
    for i, v in enumerate(result.loss_trace, 1):
        print(f"iter\t{i}\tloss\t{v!r}")
    return 0


def cmd_rank_outliers(scores, out, weights=None) -> int:
    names, _comps, combined = _load_scores(scores, weights)
    order = rank_nodes(combined)
    _write_lines(os.path.join(out, "ranked.tsv"), chain(["rank\tnode\tscore"], (
        f"{rank}\t{names[i]}\t{float(combined[i])!r}" for rank, i in enumerate(order, 1))))
    print(f"ranked\t{len(order)}")
    return 0


def cmd_evaluate(edges, attrs, labels, embedding, scores, truth, out, weights=None,
                 **protocol) -> int:
    _require_files(edges=edges, attrs=attrs, labels=labels, embedding=embedding,
                   scores=scores, truth=truth)
    net = load_network(edges, attrs, labels)
    emb_names, emb = load_embedding_tsv(embedding)
    score_names, comps, combined = _load_scores(scores, weights)
    for what, names in (("embedding", emb_names), ("scores", score_names)):
        if tuple(names) != net.node_names:
            raise ConfigError(f"{what} nodes do not match the dataset node set")

    index = {name: i for i, name in enumerate(net.node_names)}
    truth_ids = []
    for name, _kind in load_truth(truth):
        if name not in index:
            raise ConfigError(f"truth node {name!r} is not in the dataset")
        truth_ids.append(index[name])

    result = EmbeddingResult(embedding=emb, outlier_scores=combined,
                             component_scores=comps, loss_trace=[],
                             node_names=net.node_names)
    report = evaluate_all(net, result, truth_ids, **protocol)
    for name, text in (("report.json", report.to_json()), ("report.tsv", report.to_tsv())):
        _write_lines(os.path.join(out, name), text.splitlines())
    print(report.to_tsv(), end="")
    return 0


_OUT = {"required": True, "help": "output directory"}
_SEED = {"type": int, "help": "random seed"}
_WEIGHTS = {"type": _parse_weights,
            "help": "w1,w2,w3 to recombine the component scores (default: the stored "
                    "combined column)"}

# name -> (help, handler, the library callable whose defaults apply,
#          {option: add_argument keywords})
_SUBCOMMANDS = {
    "seed": ("plant ground-truth outliers into a labeled network", cmd_seed, SeedingPlan, {
        "edges": {"required": True, "help": "edge list file"},
        "attrs": {"required": True, "help": "attribute file"},
        "labels": {"required": True, "help": "label file"},
        "out": _OUT,
        "fraction": {"type": float, "dest": "total_fraction",
                     "help": "fraction of nodes to plant"},
        "band": {"type": float, "dest": "degree_band",
                 "help": "relative degree band around the class mean"},
        "seed": _SEED,
    }),
    "embed": ("fit the joint factorization and write the embedding", cmd_embed, HyperParams, {
        "edges": {"required": True, "help": "edge list file"},
        "attrs": {"required": True, "help": "attribute file"},
        "labels": {"help": "label file (enables the default embedding width)"},
        "out": _OUT,
        "k": {"type": int, "dest": "dim",
              "help": "embedding width (default: from the classes in --labels)"},
        "iters": {"type": int, "help": "optimization rounds"},
        "attr-weight": {"type": float, "help": "attribute loss weight (default: calibrated)"},
        "dis-weight": {"type": float, "help": "disagreement loss weight (default: calibrated)"},
        "combine-weights": {"type": _parse_weights, "help": "w1,w2,w3 for the combined score"},
        "init-iters": {"type": int, "help": "initialization updates per factor, in passes "
                                            "of 3, rounded up"},
        "seed": _SEED,
    }),
    "rank-outliers": ("rank nodes by combined outlier score", cmd_rank_outliers, None, {
        "scores": {"required": True, "help": "scores.tsv written by embed"},
        "out": _OUT,
        "weights": _WEIGHTS,
    }),
    "evaluate": ("score an embedding against planted ground truth", cmd_evaluate, evaluate_all, {
        "edges": {"required": True, "help": "edge list file of the seeded dataset"},
        "attrs": {"required": True, "help": "attribute file of the seeded dataset"},
        "labels": {"required": True, "help": "label file of the seeded dataset"},
        "embedding": {"required": True, "help": "embedding.tsv written by embed"},
        "scores": {"required": True, "help": "scores.tsv written by embed"},
        "truth": {"required": True, "help": "outliers.tsv written by seed"},
        "out": _OUT,
        "splits": {"type": _parse_splits, "help": "train-percent schedule start:stop:step"},
        "reps": {"type": int, "help": "splits per train percentage"},
        "weights": _WEIGHTS,
        "exclude-outliers": {"type": _parse_bool, "nargs": "?", "const": True,
                             "help": "drop planted nodes from classification/clustering"},
        "seed": _SEED,
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oaembed",
        description="Outlier-aware embedding of attributed networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _handler, lib, opts) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        params = inspect.signature(lib).parameters if lib else {}
        for opt, kwargs in opts.items():
            param = params.get(kwargs.get("dest", opt.replace("-", "_")))
            if param is not None and param.default not in (None, param.empty):
                kwargs = {**kwargs, "help": f"{kwargs['help']} (default {param.default})"}
            sub.add_argument(f"--{opt}", **kwargs)
        sub.add_argument("--config", help="key=value file supplying defaults for any option")
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with each key=value line of its --config file inserted as
    --key=value right after the subcommand; argparse keeps the last value it
    sees, so the command line wins. A key must be an option's full name."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return argv
    pre = argparse.ArgumentParser(prog=f"oaembed {argv[0]}", usage=argparse.SUPPRESS,
                                  add_help=False)
    for opt in (*_SUBCOMMANDS[argv[0]][3], "config"):  # the same abbreviations as the parser's
        pre.add_argument(f"--{opt}", nargs="?")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    cfg = {}
    for lineno, line in _data_lines(path):
        key, sep, val = line.partition("=")
        if not sep:
            raise ParseError("expected key=value", path, lineno)
        cfg[key.strip()] = val.strip()
    unknown = sorted(set(cfg) - set(_SUBCOMMANDS[argv[0]][3]))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return [argv[0], *(f"--{key}={val}" for key, val in cfg.items()), *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        opts = vars(_build_parser().parse_args(_with_config(argv)))
        opts.pop("config", None)
        return _SUBCOMMANDS[opts.pop("subcommand")][1](**opts)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    except (ParseError, OSError) as exc:
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
