"""Child process of the benchmark; it imports kdeval from this checkout's src/.

    worker.py setup <dataset.csv>   import kdeval, load the file, print "ready"
    worker.py run <job.json>        evaluate the job's datasets round after round
                                    and write <job.json>.result

A run attempts whole rounds of `evaluate_dataset` + `write_report` calls, as
many as fit in the job's seconds and at least one.  Untraced, a round
evaluates every dataset once and dataset 0 a second time, so that two outputs
of the same input can be compared.  Traced, a round evaluates the first half
of the datasets twice each, untraced and then traced, which gives the tracing
overhead and shows that tracing leaves the outputs unchanged.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_kdeval():
    sys.path.insert(0, str(ROOT / "src"))
    import kdeval

    expected = (ROOT / "src" / "kdeval").resolve()
    if Path(kdeval.__file__).resolve().parent != expected:
        raise SystemExit(f"kdeval imported from {kdeval.__file__}, not from {expected}")
    return kdeval


def load(kdeval, path):
    return kdeval.data_io.load_dataset(path, format="csv", label_column=-1)


def run(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    kdeval = import_kdeval()
    from tracer import Tracer

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    datasets = [load(kdeval, path) for path in job["datasets"]]
    load_s = 0.0
    if tracer is not None:
        tracer.uninstall()
        load_s = tracer.load_seconds() / len(datasets)
    config = kdeval.build_run_config(
        seed=job["seed"],
        k_min=job["k_min"],
        k_max=job["k_max"],
        include_variants=job["variants"] or None,
        emit_svg=job["svg"] or None,
    )

    count = len(datasets)
    if tracer is None:
        plan = [(i, False) for i in range(count)] + [(0, False)]
    else:
        plan = [(i, traced) for i in range(-(-count // 2)) for traced in (False, True)]
    evaluations = []
    layers = []
    start = time.perf_counter()
    rounds = 0
    # another round only if it is projected to end within the job's seconds
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= job["seconds"]:
        for index, traced in plan:
            dataset = datasets[index]
            out_dir = str(Path(job["out"]) / f"d{index}_e{len(evaluations)}")
            if traced:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                report = kdeval.harness.evaluate_dataset(config, dataset)
                kdeval.harness.write_report(report, out_dir, dataset=dataset,
                                            emit_svgs=config.emit_svg)
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            seconds = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                if ok:
                    layers.append(tracer.layer_metrics())
            evaluations.append({"dataset": index, "traced": traced, "seconds": seconds,
                                "ok": ok, "out": out_dir})
        rounds += 1

    result = {
        "evaluations": evaluations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "load_dataset_s": load_s,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
        "broken_hooks": sorted(tracer.broken_hooks) if tracer else [],
    }
    with open(job_path + ".result", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    if len(argv) != 2 or argv[0] not in ("setup", "run"):
        raise SystemExit(__doc__)
    if argv[0] == "setup":
        kdeval = import_kdeval()
        load(kdeval, argv[1])
        print("ready", flush=True)
    else:
        run(argv[1])


if __name__ == "__main__":
    main(sys.argv[1:])
