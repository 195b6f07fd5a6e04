"""The three benchmark workloads. See README.md for why each exists.

Each workload is a class with:
  setup()      -> the seeded input the timed sequence consumes (timed as setup_s)
  iteration()  -> one timed sequence; returns its step timings and an output
                  digest, and records each operation's checks in the ledger
  quality()    -> untimed, untraced quality figures for the last iteration
A run times `setup` `setup_repeats` extra times, then repeats `iteration`
for the requested seconds (at least once). A traced run does one untraced
and one traced iteration. Each iteration reports lists of setup, fit and
evaluation step times; fits are tagged with their configuration (the
embedding width) so fit_s can take a median per configuration.
"""

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy as np

import oaembed
import oaembed.cli

from checks import (Digest, check_exit, check_fraction, check_loss_trace,
                    check_orthonormal, check_ranking, check_scores)

CHILD_TIMEOUT_S = 60     # a CLI subprocess that runs longer counts as failed
SCORE_FLOOR = 1e-8       # HyperParams / CLI default
BUDGET = 1.0             # HyperParams / CLI default


class Ledger:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def check_fit(ledger, label, model, result, diag):
    problems = check_loss_trace(result.loss_trace, getattr(diag, "initial_loss", None))
    problems += check_scores(result.component_scores, BUDGET, SCORE_FLOOR)
    problems += check_orthonormal(model.align)
    ledger.record(label, problems)


def fit_digest(digest, result):
    digest.array(result.embedding).array(result.component_scores)
    digest.array(result.outlier_scores).array(np.asarray(result.loss_trace))


def input_seed(seed, i):
    """Seed of the i-th input a run draws: each iteration (and each network
    of a sweep pass) gets its own, so quality is averaged over several
    plantings; i = 0 is the workload seed itself."""
    return seed * 1000 + i


def mean_quality(reports):
    n = len(reports)
    return {"recall_at_25": sum(r.recall_at[25] for r in reports) / n,
            "f1_micro_50": sum(r.f1[50][1] for r in reports) / n,
            "clustering_accuracy": sum(r.clustering_accuracy for r in reports) / n}


def stored_mb(net):
    a = net.attributes
    if hasattr(a, "indptr"):
        return (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes) / 1e6
    return a.nbytes / 1e6


# --------------------------------------------------------------------------
# protocol-sbm4k: the ROADMAP baseline row, run through the library.

class ProtocolSbm4k:
    name = "protocol-sbm4k"
    synth = dict(n_nodes=4000, n_classes=5, p_in=0.01, p_out=0.0005,
                 n_attrs=2000, attr_signal=0.9)
    fraction = 0.05
    dim = 15
    setup_repeats = 1
    nominal_s = 18.0     # one iteration on the reference machine

    def __init__(self, seed, ledger, workdir):
        self.seed = seed
        self.ledger = ledger
        self.reports = []

    def setup(self, i=0):
        s = input_seed(self.seed, i)
        net = oaembed.synth_network(**self.synth, seed=s)
        return oaembed.seed_outliers(
            net, oaembed.SeedingPlan(total_fraction=self.fraction, seed=s))

    def iteration(self, i):
        s = input_seed(self.seed, i)
        t0 = time.perf_counter()
        seeded = self.setup(i)
        t1 = time.perf_counter()
        model, _scores, result, diag = oaembed.fit(
            seeded.network, oaembed.HyperParams(dim=self.dim, seed=s))
        t2 = time.perf_counter()
        report = oaembed.evaluate_all(seeded.network, result, seeded.outlier_ids, seed=s)
        t3 = time.perf_counter()

        self.ledger.record("setup", [])
        check_fit(self.ledger, "fit", model, result, diag)
        self.ledger.record("evaluate", [
            p for name, v in (("recall_at_25", report.recall_at[25]),
                              ("clustering_accuracy", report.clustering_accuracy),
                              ("f1_micro_50", report.f1[50][1]))
            for p in check_fraction(name, v)])
        self.reports.append(report)
        digest = Digest()
        fit_digest(digest, result)
        digest.text(report.to_json())
        return {"setup_s": [t1 - t0], "fits": [(self.dim, t2 - t1)], "evaluate_s": [t3 - t2],
                "total_s": t3 - t0, "digest": digest.hexdigest()}

    def quality(self):
        return mean_quality(self.reports)


# --------------------------------------------------------------------------
# sweep-small: many small fits, the regime of sensitivity sweeps and tests.

class SweepSmall:
    name = "sweep-small"
    synth = dict(n_nodes=300, n_classes=3, p_in=0.05, p_out=0.005,
                 n_attrs=120, attr_signal=0.9)
    fraction = 0.05
    dims = (3, 6, 9, 12)
    networks = 25        # one seeded network per fit seed: 4 x 25 = 100 fits a pass
    quality_dim = 9      # default_dim for 3 classes
    quality_splits = (50,)
    quality_reps = 2
    setup_repeats = 0    # every pass sets up 25 networks
    nominal_s = 14.0

    def __init__(self, seed, ledger, workdir):
        self.seed = seed
        self.ledger = ledger
        self.recalls = []
        self.kept = []

    def setup(self, sub=0):
        s = input_seed(self.seed, sub)
        net = oaembed.synth_network(**self.synth, seed=s)
        return oaembed.seed_outliers(
            net, oaembed.SeedingPlan(total_fraction=self.fraction, seed=s))

    def iteration(self, i):
        setup_times, fits, eval_times = [], [], []
        self.kept = []
        digest = Digest()
        t0 = time.perf_counter()
        for sub in range(i * self.networks, (i + 1) * self.networks):
            ts = time.perf_counter()
            seeded = self.setup(sub)
            setup_times.append(time.perf_counter() - ts)
            self.ledger.record("setup", [])
            net, truth = seeded.network, seeded.outlier_ids
            for dim in self.dims:
                hp = oaembed.HyperParams(dim=dim, seed=input_seed(self.seed, sub))
                tf = time.perf_counter()
                model, _scores, result, diag = oaembed.fit(net, hp)
                te = time.perf_counter()
                recall = oaembed.recall_at(oaembed.rank_nodes(result.outlier_scores),
                                           truth, 25)
                eval_times.append(time.perf_counter() - te)
                fits.append((dim, te - tf))
                check_fit(self.ledger, f"fit k={dim} seed={hp.seed}", model, result, diag)
                self.recalls.append(recall)
                fit_digest(digest, result)
                if dim == self.quality_dim:
                    self.kept.append((net, truth, result))
        total = time.perf_counter() - t0
        return {"setup_s": setup_times, "fits": fits, "evaluate_s": eval_times,
                "total_s": total, "digest": digest.hexdigest()}

    def quality(self):
        """recall: mean over every fit of the run; F1 and clustering: mean
        over the last pass's K=9 fits."""
        reports = [oaembed.evaluate_all(net, r, truth, splits=self.quality_splits,
                                        reps=self.quality_reps, seed=self.seed)
                   for net, truth, r in self.kept]
        return {**mean_quality(reports),
                "recall_at_25": sum(self.recalls) / len(self.recalls)}


# --------------------------------------------------------------------------
# cli-cora: a Cora-shaped sparse bag-of-words network, run through the CLI.

def write_cora_like(out_dir, seed, n_nodes=2580, n_classes=7, n_attrs=1433,
                    n_edges=5200, mean_nnz=18, homophily=0.8):
    """Write edges.txt, attributes.txt (sparse idx:val rows) and labels.txt.

    Cora's class proportions, a heavy-tailed node activity for degrees, every
    node with at least one same-class edge, and binary word features drawn
    from a Zipf vocabulary boosted on a class-specific word set. Costs
    O(E + N * nnz); deterministic per seed.
    """
    rng = np.random.default_rng([seed, 0xC07A])
    cora = np.array([818, 426, 418, 351, 298, 217, 180], dtype=float)[:n_classes]
    sizes = np.floor(cora / cora.sum() * n_nodes).astype(int)
    sizes[: n_nodes - sizes.sum()] += 1
    labels = rng.permutation(np.repeat(np.arange(n_classes), sizes))
    members = [np.flatnonzero(labels == c) for c in range(n_classes)]
    activity = rng.pareto(8.0, n_nodes) + 1.0
    cum_all = np.cumsum(activity)
    cum_class = [np.cumsum(activity[m]) for m in members]

    def draw(cum, pool=None):
        j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return int(pool[j]) if pool is not None else j

    edges = set()
    for i in range(n_nodes):  # one same-class edge per node: no isolated nodes
        c = labels[i]
        j = i
        while j == i:
            j = draw(cum_class[c], members[c])
        edges.add((min(i, j), max(i, j)))
    while len(edges) < n_edges:
        i = draw(cum_all)
        if rng.random() < homophily:
            j = draw(cum_class[labels[i]], members[labels[i]])
        else:
            j = draw(cum_all)
        if i != j:
            edges.add((min(i, j), max(i, j)))

    popularity = 1.0 / (np.arange(n_attrs) + 10.0)
    rng.shuffle(popularity)
    topic = []
    for c in range(n_classes):
        p = popularity.copy()
        p[rng.choice(n_attrs, size=n_attrs // 20, replace=False)] *= 30.0
        topic.append(p / p.sum())
    nnz = np.clip(rng.poisson(mean_nnz, n_nodes), 3, n_attrs)

    names = [f"p{i}" for i in range(n_nodes)]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "edges.txt"), "w", encoding="utf-8") as fh:
        for i, j in sorted(edges):
            fh.write(f"{names[i]} {names[j]}\n")
    with open(os.path.join(out_dir, "attributes.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"%dim {n_attrs}\n")
        for i in range(n_nodes):
            words = np.sort(rng.choice(n_attrs, size=nnz[i], replace=False,
                                       p=topic[labels[i]]))
            fh.write(names[i] + " " + " ".join(f"{w}:1" for w in words) + "\n")
    with open(os.path.join(out_dir, "labels.txt"), "w", encoding="utf-8") as fh:
        for i in range(n_nodes):
            fh.write(f"{names[i]} class{labels[i]}\n")


def read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return rows[0], rows[1:]


class CliCora:
    name = "cli-cora"
    fraction = 0.05
    quality_splits = (50,)
    quality_reps = 10
    import_probes = 3
    setup_repeats = 0    # every iteration starts with `oaembed seed`
    rank_repeats = 2     # rank-outliers is mostly process start-up: take more samples
    nominal_s = 11.0

    def __init__(self, seed, ledger, workdir):
        self.seed = seed
        self.ledger = ledger
        self.inputs = os.path.join(workdir, "input")
        self.seeded = os.path.join(workdir, "seeded")
        self.out = os.path.join(workdir, "run")
        self.in_process = False  # traced runs call oaembed.cli.main in-process
        self.tracer = None
        self.recalls = []
        self.input_seed = seed
        shutil.rmtree(workdir, ignore_errors=True)
        write_cora_like(self.inputs, seed)

    def argv(self, sub):
        i, s = self.inputs, self.seeded
        return {
            "seed": ["seed", "--edges", f"{i}/edges.txt", "--attrs", f"{i}/attributes.txt",
                     "--labels", f"{i}/labels.txt", "--out", s,
                     "--fraction", repr(self.fraction), "--seed", str(self.input_seed)],
            "embed": ["embed", "--edges", f"{s}/edges.txt", "--attrs", f"{s}/attributes.txt",
                      "--labels", f"{s}/labels.txt", "--out", self.out,
                      "--seed", str(self.input_seed)],
            "rank-outliers": ["rank-outliers", "--scores", f"{self.out}/scores.tsv",
                              "--out", self.out],
        }[sub]

    def run_cli(self, sub):
        """Run one subcommand; returns (exit code, wall seconds)."""
        argv = self.argv(sub)
        t0 = time.perf_counter()
        stderr = io.StringIO()
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = self.tracer.span(f"cli.{sub}", oaembed.cli.main, argv)
            stderr = stderr.getvalue()
        else:
            try:
                proc = subprocess.run([sys.executable, "-m", "oaembed.cli", *argv],
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True, timeout=CHILD_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                code, stderr = "timeout", ""
        dt = time.perf_counter() - t0
        problems = check_exit(sub, code)
        self.ledger.record(sub, problems + stderr.strip().splitlines()[-1:] if problems else [])
        return code, dt

    def setup(self, i=0):
        self.input_seed = input_seed(self.seed, i)
        shutil.rmtree(self.seeded, ignore_errors=True)
        self.run_cli("seed")

    def iteration(self, i):
        self.input_seed = input_seed(self.seed, i)
        for d in (self.seeded, self.out):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        _, t_seed = self.run_cli("seed")
        _, t_embed = self.run_cli("embed")
        _, t_rank = self.run_cli("rank-outliers")
        total = time.perf_counter() - t0
        t_ranks = [t_rank] + [self.run_cli("rank-outliers")[1]
                              for _ in range(self.rank_repeats - 1)]
        digest = Digest()
        for path in sorted(os.listdir(self.seeded)):
            digest.file(os.path.join(self.seeded, path))
        for path in ("embedding.tsv", "scores.tsv", "loss.tsv", "ranked.tsv"):
            digest.file(os.path.join(self.out, path))
        self.ledger.record("outputs", self.check_outputs())
        self.recalls.append(self.recall())
        return {"setup_s": [t_seed], "fits": [("embed", t_embed)], "evaluate_s": t_ranks,
                "total_s": total, "digest": digest.hexdigest()}

    def check_outputs(self):
        _, loss_rows = read_tsv(os.path.join(self.out, "loss.tsv"))
        problems = check_loss_trace([float(r[1]) for r in loss_rows])
        _, score_rows = read_tsv(os.path.join(self.out, "scores.tsv"))
        names = [r[0] for r in score_rows]
        cols = np.array([[float(v) for v in r[1:4]] for r in score_rows])
        problems += check_scores(cols, BUDGET, SCORE_FLOOR)
        _, ranked = read_tsv(os.path.join(self.out, "ranked.tsv"))
        problems += check_ranking(names, [(int(r[0]), r[1], float(r[2])) for r in ranked])
        return problems

    def truth(self):
        with open(os.path.join(self.seeded, "outliers.tsv"), encoding="utf-8") as fh:
            return {line.split()[0] for line in fh if line.strip()}

    def recall(self):
        """recall@25 % of ranked.tsv against outliers.tsv."""
        _, ranked = read_tsv(os.path.join(self.out, "ranked.tsv"))
        top = {r[1] for r in ranked[:math.ceil(0.25 * len(ranked) - 1e-9)]}
        truth = self.truth()
        return len(truth & top) / len(truth)

    def quality(self):
        """recall: mean over the run's iterations; F1 and clustering: the last
        iteration's embedding under the protocol's 50 % split."""
        net = oaembed.load_network(os.path.join(self.seeded, "edges.txt"),
                                   os.path.join(self.seeded, "attributes.txt"),
                                   os.path.join(self.seeded, "labels.txt"))
        index = {n: i for i, n in enumerate(net.node_names)}
        _, emb_rows = read_tsv(os.path.join(self.out, "embedding.tsv"))
        _, score_rows = read_tsv(os.path.join(self.out, "scores.tsv"))
        emb = np.zeros((net.n_nodes, len(emb_rows[0]) - 1))
        scores = np.zeros((net.n_nodes, 4))
        for row in emb_rows:
            emb[index[row[0]]] = [float(v) for v in row[1:]]
        for row in score_rows:
            scores[index[row[0]]] = [float(v) for v in row[1:5]]
        result = oaembed.EmbeddingResult(
            embedding=emb, outlier_scores=scores[:, 3], component_scores=scores[:, :3],
            loss_trace=[], node_names=list(net.node_names))
        report = oaembed.evaluate_all(net, result, [index[n] for n in self.truth()],
                                      splits=self.quality_splits,
                                      reps=self.quality_reps, seed=self.input_seed)
        return {**mean_quality([report]),
                "recall_at_25": sum(self.recalls) / len(self.recalls)}

    def import_seconds(self):
        """Median wall time of `import oaembed.cli` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import oaembed.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(self.import_probes):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S, check=True)
            times.append(float(out.stdout.strip()))
        return median(times)


WORKLOADS = {w.name: w for w in (ProtocolSbm4k, CliCora, SweepSmall)}
