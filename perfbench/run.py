"""Benchmark of `kdeval evaluate`: load, generate candidates, score with
ch,sc,db,new, rank and write the report, on generated datasets.

    python3 perfbench/run.py --workload sweep400 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREADS = "1"  # BLAS/OpenMP threads, fixed so runs on a shared 2-core host stay comparable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

# numpy is first imported by checks, after the thread pinning above
from checks import CheckFailed, champion_ari, check_dataset, deterministic_files  # noqa: E402
from workloads import WORKLOADS, write_csv  # noqa: E402

SETUP_PROBES = 7
SUCCESS_ARI = 0.95  # the paper's success criterion for a champion
WORKER_GRACE_S = 120  # on top of --seconds: the last round and process start

UNITS = {"evaluate_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "champion_ari": "ARI"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_seconds(csv_path):
    """Fresh interpreter start until kdeval is imported and the file loaded."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup", str(csv_path)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            fail("set-up probe failed")
    return statistics.median(times)


def run_worker(job, job_path, seconds):
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "run", str(job_path)])
    try:
        code = proc.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker did not finish in time")
    if code != 0:
        fail(f"worker exited with code {code}")
    return json.loads(Path(str(job_path) + ".result").read_text(encoding="utf-8"))


def per_dataset(evaluations, traced):
    """Median evaluation time of each dataset, untraced or traced."""
    by_dataset = {}
    for e in evaluations:
        if e["ok"] and e["traced"] == traced:
            by_dataset.setdefault(e["dataset"], []).append(e["seconds"])
    return {d: statistics.median(v) for d, v in by_dataset.items()}


def layer_unit(name):
    return "s" if name.endswith("_s") else "share" if name.endswith("_share") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kdeval" / "__init__.py").is_file():
        fail(f"no kdeval sources under {ROOT / 'src'}; run from the root of a checkout")

    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = []
    for index in range(workload.datasets):
        points, labels = workload.generate(args.seed, index)
        path = work / f"dataset{index}.csv"
        write_csv(path, points, labels)
        data.append((path, points, labels))

    setup_s = setup_seconds(data[0][0])
    job = {
        "datasets": [str(path) for path, _, _ in data],
        "seed": args.seed,
        "k_min": workload.k_min,
        "k_max": workload.k_max,
        "variants": workload.variants,
        "svg": workload.svg,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "out": str(work / "out"),
    }
    result = run_worker(job, work / "job.json", args.seconds)
    evaluations = result["evaluations"]
    failed = sum(not e["ok"] for e in evaluations)

    correct = True
    champion = []
    for index, (_, points, labels) in enumerate(data):
        outs = [e["out"] for e in evaluations if e["dataset"] == index and e["ok"]]
        if not outs:
            continue
        champion.append(champion_ari(outs[0]))
        try:
            check_dataset(outs[0], points, labels, args.seed)
            first = deterministic_files(outs[0])
            for other in outs[1:]:
                if deterministic_files(other) != first:
                    raise CheckFailed(f"{other} differs from {outs[0]}")
        except CheckFailed as exc:
            print(f"perfbench: dataset {index}: check failed: {exc}", file=sys.stderr)
            correct = False

    print(f"perfbench: champion of new has ARI > {SUCCESS_ARI} on "
          f"{sum(a > SUCCESS_ARI for a in champion)} of {len(champion)} datasets")
    untraced = per_dataset(evaluations, traced=False)
    if not untraced:
        fail("no evaluation succeeded")
    if args.trace:
        metrics = layer_metrics(result, untraced, per_dataset(evaluations, traced=True))
        if result["absent"] or result["broken_hooks"]:
            print("perfbench: absent from the program, reported as 0: "
                  + ", ".join(result["absent"] + [f"counters of {h}" for h in result["broken_hooks"]]))
    else:
        values = {
            "evaluate_s": statistics.fmean(untraced.values()),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "champion_ari": statistics.fmean(champion) if champion else 0.0,
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(evaluations), "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(result, untraced, traced):
    """Per-layer metrics: mean per traced evaluation, plus the tracing overhead
    and the share of the traced evaluation time the harness phases cover."""
    layers = result["layers"]
    values = {name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]} if layers else {}
    values["data_io.load_dataset_s"] = result["load_dataset_s"]
    traced_s = statistics.fmean(traced.values()) if traced else 0.0
    phases = ("harness.generate_s", "harness.score_s", "harness.rank_s", "harness.write_report_s")
    values["harness.phase_share"] = sum(values.get(p, 0.0) for p in phases) / traced_s if traced_s else 0.0
    values["trace.evaluate_s"] = traced_s
    values["trace.overhead_s"] = statistics.fmean(traced[d] - untraced[d] for d in traced) if traced else 0.0
    return {name: {"value": float(value), "unit": layer_unit(name)} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
