"""Benchmark of the oaembed pipeline. See README.md in this directory.

    python3 bench/run.py --workload protocol-sbm4k --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout. The package is imported from the checkout's
`src/`, never from an installed copy. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. A fuller
record, with provenance, goes to bench/out/.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("protocol-sbm4k", "cli-cora", "sweep-small")
DEFAULT_SEED = 0      # README.md names seed 7 as the held-out seed for claims
BLAS_THREADS = 2      # pinned for this process and every child it starts

UNITS = {"setup_s": "s", "total_s": "s", "fit_s": "s", "fit_p90_s": "s",
         "evaluate_s": "s", "peak_rss_mb": "MB", "recall_at_25": "fraction",
         "f1_micro_50": "fraction"}
# printed and recorded, not in the JSON line (see README.md)
EXTRA_UNITS = {"clustering_accuracy": "fraction", "fit_p50_s": "s", "fits_per_s": "1/s",
               "embed_s": "s", "failed_frac": "fraction"}


def pin_environment():
    """Pin BLAS threads and point imports at the checkout, before numpy loads."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    sys.path.insert(0, SRC)
    return threads


def provenance(workload, seed, trace, threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "oaembed", "*.py"))):
        with open(path, "rb") as fh:
            src_hash.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "trace": trace, "commit": commit,
            "source_sha256": src_hash.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads, "nproc": os.cpu_count(), "cpu": cpu}


def measure(workload, seconds):
    """Untraced run: `setup_repeats` extra setups, then the timed sequence
    max(1, seconds // nominal_s) times. nominal_s is one iteration's duration
    on the reference machine, so there the run measures for about `seconds`;
    the count does not depend on speed, so both sides of a comparison do the
    same work and keep the same peak memory. On a machine so slow that the
    next iteration would end after 1.5 x seconds, the run stops early."""
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    samples = []
    start = time.perf_counter()
    for i in range(max(1, int(seconds // workload.nominal_s))):
        t0 = time.perf_counter()
        samples.append(workload.iteration(i))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > 1.5 * seconds:
            break
    return setups, samples


def compare_digests(prov, digests):
    """Check this run's output digests against every earlier run in this
    checkout with the same input and the same code, libraries and threads."""
    from checks import check_digests
    build = hashlib.sha256(json.dumps(
        {k: prov[k] for k in ("source_sha256", "python", "numpy", "scipy", "blas",
                              "blas_threads")}, sort_keys=True).encode()).hexdigest()[:12]
    keyed = [(f"{build}/{prov['workload']}/seed{prov['seed']}/iteration{i}", d)
             for i, d in digests]
    path = os.path.join(OUT_DIR, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    problems = check_digests(store, keyed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return problems


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(setups, samples, quality, rss_mb):
    """Medians over the run's steps. fit_s is the mean over configurations
    (embedding widths) of each one's median fit time, so a sweep over several
    widths does not put its median in the gap between two of them."""
    fits = [f for s in samples for f in s["fits"]]
    by_config = {}
    for config, t in fits:
        by_config.setdefault(config, []).append(t)
    times = [t for _, t in fits]
    setups = setups + [t for s in samples for t in s["setup_s"]]
    evals = [t for s in samples for t in s["evaluate_s"]]
    metrics = {
        "setup_s": median(setups),
        "total_s": median([s["total_s"] for s in samples]),
        "fit_s": sum(median(v) for v in by_config.values()) / len(by_config),
        "fit_p90_s": percentile(times, 0.9),
        "evaluate_s": median(evals),
        "peak_rss_mb": rss_mb,
        "recall_at_25": quality["recall_at_25"],
        "f1_micro_50": quality["f1_micro_50"],
    }
    extra = {"clustering_accuracy": quality["clustering_accuracy"],
             "fit_p50_s": median(times),
             "fits_per_s": len(times) / sum(s["total_s"] for s in samples)}
    counts = {"setup_s": len(setups), "total_s": len(samples), "fit_s": len(times),
              "fit_p90_s": len(times), "fit_p50_s": len(times), "evaluate_s": len(evals)}
    return metrics, extra, counts


def cpu_steal():
    """(stolen, total) CPU ticks since boot from /proc/stat, or None. On a
    virtual machine the share stolen by the host during a run explains much
    of its timing noise."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_share(start, end):
    if start is None or end is None or end[1] == start[1]:
        return None
    return round((end[0] - start[0]) / (end[1] - start[1]), 4)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oaembed", "__init__.py")):
        print(f"error: no oaembed package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = pin_environment()
    import oaembed
    if not os.path.abspath(oaembed.__file__).startswith(SRC + os.sep):
        print(f"error: imported oaembed from {oaembed.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS, Ledger

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ledger = Ledger()
    extra = {}
    steal_start = cpu_steal()
    try:
        workload = WORKLOADS[args.workload](
            args.seed, ledger, os.path.join(OUT_DIR, f"work-{args.workload}"))
        if args.trace:
            metrics, same_input = layers.traced_run(
                workload, os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
            digests = [(0, d) for d in same_input]
            counts, samples = {}, []
        else:
            setups, samples = measure(workload, args.seconds)
            quality = workload.quality()
            metrics, extra, counts = end_to_end(
                setups, samples, quality, peak_rss_mb(children=args.workload == "cli-cora"))
            digests = [(i, s["digest"]) for i, s in enumerate(samples)]
            if args.workload == "cli-cora":
                extra["embed_s"] = metrics["fit_s"]
    except Exception as exc:  # a crash is a failed operation, not a result
        traceback.print_exc()
        ledger.record("run", [f"{type(exc).__name__}: {exc}"])
        metrics, counts, digests, samples = {}, {}, [], []

    prov = provenance(args.workload, args.seed, args.trace, threads)
    prov["cpu_steal_frac"] = steal_share(steal_start, cpu_steal())
    ledger.record("digests", compare_digests(prov, digests))
    correct = ledger.failed == 0 and bool(metrics)
    extra["failed_frac"] = ledger.failed / ledger.attempted
    record = {"provenance": prov,
              "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems, "digests": digests,
              "metrics": metrics, "extra": extra, "counts": counts,
              "samples": samples}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("provenance " + json.dumps(record["provenance"]))
    for p in ledger.problems:
        print(f"FAILED {p}")
    units = {**(layers.UNITS if args.trace else UNITS), **EXTRA_UNITS}
    for name, value in {**metrics, **extra}.items():
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after another; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stderr, file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
