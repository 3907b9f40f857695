"""Scale recordings: the default `kdeval evaluate` config (k=2..30, every
generator, ch/sc/db/new) on the perfbench recipes at sizes past the gated
workloads.

    python3 scripts/scale_runs.py --root <checkout> [--root <checkout>] [--rounds 2]

The runs are `four_blobs` and `blobs_d4` at n=2000 and `four_blobs` at n=5000,
each dataset drawn with numpy.random.default_rng((1, 0)) from the recipes in
perfbench/workloads.py of the checkout that holds this script.  Every run is a
fresh process with one BLAS thread that imports kdeval from <checkout>/src
and times one `evaluate_dataset` call.  With two roots, each round runs every
workload on both, and the order of the roots flips from round to round, so
that two checkouts alternate.

Standard output is one JSON object: per run the root, workload, round, wall
time of the evaluation, its generation and scoring times (the report's
runtime), peak RSS and candidate count.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUNS = (("four_blobs", 2000), ("blobs_d4", 2000), ("four_blobs", 5000))
SEED = 1


def child(root, recipe, n):
    """Evaluate one dataset with kdeval from root/src; print one JSON line."""
    import resource
    import time

    import numpy as np

    sys.path.insert(0, str(Path(root).resolve() / "src"))
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import kdeval
    import workloads

    points, labels = getattr(workloads, recipe)(np.random.default_rng((1, 0)), n)
    dataset = kdeval.data_io.Dataset(points, reference_labels=labels, id=f"{recipe}{n}")
    config = kdeval.build_run_config(seed=SEED)
    t0 = time.perf_counter()
    report = kdeval.harness.evaluate_dataset(config, dataset)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "wall_s": round(wall, 3),
        "generate_s": round(report.runtime["generate_s"], 3),
        "score_s": round(report.runtime["score_s"], 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "candidates": len(report.rows),
    }))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", required=True,
                        help="checkout whose src/ is measured; give two to alternate")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    runs = []
    for rnd in range(args.rounds):
        roots = args.root if rnd % 2 == 0 else args.root[::-1]
        for recipe, n in RUNS:
            for root in roots:
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", root, recipe, str(n)],
                    env=env, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"run {recipe} n={n} on {root} failed")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"root": root, "workload": f"{recipe}_n{n}", "round": rnd + 1,
                             **result})
                print(json.dumps(runs[-1]), file=sys.stderr)
    print(json.dumps({"seed": SEED, "rng": [1, 0], "k": [2, 30], "blas_threads": 1,
                      "runs": runs}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4], int(sys.argv[4]))
    else:
        main(sys.argv[1:])
