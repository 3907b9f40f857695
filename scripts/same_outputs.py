"""Output identity between checkouts: every perfbench evaluation's written
files, plus default-config evaluations and a calibration, hashed per
checkout and compared.

    python3 scripts/same_outputs.py --root <checkout> --root <checkout> [--seeds 401 402]

Each dataset of every perfbench workload is drawn for each seed with the
recipes in perfbench/workloads.py of the checkout that holds this script, as
scripts/scale_runs.py draws them.  For each root, one fresh process with one
BLAS thread imports kdeval from <root>/src and runs `evaluate_dataset` and
`write_report` on every dataset with the workload's settings, as the
perfbench worker sets them (k range, variants, SVGs; dataset ids
`dataset<index>`).  The workloads stop at k=6, so each seed also runs the
default config, `build_run_config(seed=seed)` (k=2..30, every generator,
ch/sc/db/new, no variants, no SVGs), on one n=400 dataset of each recipe the
workloads use, drawn with numpy.random.default_rng((seed, 0)) and keyed
`default400/<recipe>/<seed>`: that range is where singletons take the
fallback bandwidth, clusters fall below the CV bound's size gate and GMM runs
at high k.  The n=400 `two_rings` dataset is also evaluated with
`build_run_config(seed=seed, include_variants=True)`, keyed
`variants400/two_rings/<seed>`: the Monte-Carlo variant then meets
singletons, small clusters and many profiles.  Each default-config
evaluation is then repeated on its own candidates as `kdeval rank` runs it:
the candidate directory its report wrote (with `save_partitions`) is read
back with `load_partitions` and passed to `evaluate_dataset(candidates=...)`,
keyed `rank400/<recipe>/<seed>`, so the manifest reader and `canonicalize`
on labels read from files are covered.  The digest of an evaluation
is a SHA-256 over the relative path and bytes of every file it wrote except
runtime.txt, the candidate directory included.  Each seed also runs
`calibrate` with `build_run_config(seed=seed, k_min=2, k_max=6)` on those
three n=400 datasets, and the SHA-256 of the `calibrated.ini` it writes is
keyed `calibrate/<seed>`.

Standard output is one JSON object: each root's digest per
`workload/seed/index`, `default400/recipe/seed`, `rank400/recipe/seed`,
`variants400/two_rings/seed` and `calibrate/seed`, the count of
evaluations, and the keys whose digests differ between the roots.  The exit status is 1 when any key differs and 2
when the evaluations of a root fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from scale_runs import THREAD_VARS

HERE = Path(__file__).resolve().parent
DEFAULT_N = 400


def tree_digest(out_dir):
    """SHA-256 over (relative path, bytes) of every file under out_dir but runtime.txt."""
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            if name == "runtime.txt":
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def child(root, seeds):
    """Evaluate every dataset with kdeval from root/src; print one JSON object."""
    import tempfile

    import numpy as np

    sys.path.insert(0, str(Path(root).resolve() / "src"))
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import kdeval
    from workloads import WORKLOADS

    recipes = {workload.recipe.__name__: workload.recipe for workload in WORKLOADS.values()}
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        def record(key, config, dataset, candidates=None):
            out = os.path.join(work, key.replace("/", "_"))
            report = kdeval.harness.evaluate_dataset(config, dataset, candidates=candidates)
            kdeval.harness.write_report(report, out, dataset=dataset, emit_svgs=config.emit_svg)
            digests[key] = tree_digest(out)
            return out

        for name, workload in WORKLOADS.items():
            for seed in seeds:
                config = kdeval.build_run_config(
                    seed=seed, k_min=workload.k_min, k_max=workload.k_max,
                    include_variants=workload.variants or None, emit_svg=workload.svg or None)
                for index in range(workload.datasets):
                    points, labels = workload.generate(seed, index)
                    record(f"{name}/{seed}/{index}", config,
                           kdeval.data_io.Dataset(points, labels, id=f"dataset{index}"))
        for seed in seeds:
            config = kdeval.build_run_config(seed=seed)
            datasets = []
            for recipe_name, recipe in recipes.items():
                points, labels = recipe(np.random.default_rng((seed, 0)), DEFAULT_N)
                datasets.append(kdeval.data_io.Dataset(points, labels, id=recipe_name))
                out = record(f"default{DEFAULT_N}/{recipe_name}/{seed}", config, datasets[-1])
                supplied = kdeval.partitions.load_partitions(os.path.join(out, "candidates"))
                record(f"rank{DEFAULT_N}/{recipe_name}/{seed}", config, datasets[-1], supplied)
                if recipe_name == "two_rings":
                    record(f"variants{DEFAULT_N}/{recipe_name}/{seed}",
                           kdeval.build_run_config(seed=seed, include_variants=True), datasets[-1])
            out = os.path.join(work, f"calibrated_{seed}.ini")
            kdeval.harness.calibrate(kdeval.build_run_config(seed=seed, k_min=2, k_max=6),
                                     datasets, out_path=out)
            with open(out, "rb") as fh:
                digests[f"calibrate/{seed}"] = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps(digests))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", required=True,
                        help="checkout whose src/ is run; give two to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[401, 402])
    args = parser.parse_args(argv)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    digests = {}
    for root in args.root:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", root, *map(str, args.seeds)],
            env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(f"{proc.stderr}evaluations on {root} failed\n")
            return 2
        digests[root] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = sorted(set().union(*digests.values()))
    differ = [key for key in keys if len({d.get(key) for d in digests.values()}) > 1]
    print(json.dumps({"seeds": args.seeds, "blas_threads": 1, "evaluations": len(keys),
                      "differ": differ, "digests": digests}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], [int(s) for s in sys.argv[3:]])
    else:
        sys.exit(main(sys.argv[1:]))
