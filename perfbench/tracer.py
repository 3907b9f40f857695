"""Per-layer spans recorded from outside the program.

Each traced public name is replaced, in every kdeval module namespace that
binds the same function object, by a wrapper that records a span (name,
start, end, parent) and, for a few names, counts the work the call did.  A
name that no longer exists is reported as absent instead of failing the run.

Layer times are self times: a span's duration minus the durations of the
spans it encloses, so `log_density_many` called inside `select_bandwidth`
counts as kernel time, not as bandwidth-search time.  Kernel time is also
split by the caller that asked for it (CV, cross matrix, Monte Carlo).  The
harness phases are whole (inclusive) durations, because a phase is the sum of
the layers below it.
"""

import functools
import sys
import time
from collections import Counter

import numpy as np

TRACED = (
    ("data_io", "load_dataset"),
    ("partitions", "build_candidates"),
    ("partitions", "kmeans"),
    ("partitions", "gmm_em"),
    ("partitions", "linkage"),
    ("partitions", "fcluster"),
    ("density", "select_bandwidth"),
    ("density", "log_density_many"),
    ("density", "cluster_scale"),
    ("density", "fallback_bandwidth"),
    ("kdi", "fit_profiles"),
    ("kdi", "cross_log_density"),
    ("kdi", "kdi_index"),
    ("kdi", "ambiguous_v1"),
    ("kdi", "ambiguous_v2"),
    ("kdi", "ambiguous_v3"),
    ("kdi", "similarity_v1"),
    ("kdi", "similarity_v2"),
    ("kdi", "similarity_v3"),
    ("baselines", "calinski_harabasz"),
    ("baselines", "silhouette"),
    ("baselines", "davies_bouldin"),
    ("baselines", "adjusted_rand_index"),
    ("harness", "evaluate_dataset"),
    ("harness", "rank_candidates"),
    ("harness", "write_report"),
    ("svgplot", "emit_svg"),
)

VARIANTS = ("kdi.ambiguous_v1", "kdi.ambiguous_v2", "kdi.ambiguous_v3",
            "kdi.similarity_v1", "kdi.similarity_v2", "kdi.similarity_v3")
BASELINES = ("baselines.calinski_harabasz", "baselines.silhouette", "baselines.davies_bouldin")


def _kernel(tracer, args, result):
    tracer.counts["kernel_pairs"] += np.shape(result)[0] * args[0].training_points.shape[0]


def _select_bandwidth(tracer, args, result):
    grid = args[1].grid
    if len(grid) > 1 and result in (grid[0], grid[-1]):
        tracer.counts["cv_edge_optima"] += 1


def _fit_profiles(tracer, args, result):
    tracer.counts["clusters_fitted"] += len(result)
    tracer.member_sets.update(p.member_indices.tobytes() for p in result)


def _ambiguous_v3(tracer, args, result):
    profiles, mc_samples = args[1], args[2]
    if len(profiles) >= 2:
        tracer.counts["mc_queries"] += int(mc_samples) * len(profiles)


def _build_candidates(tracer, args, result):
    tracer.counts["candidates_kept"] += len(result)
    # a kept candidate's source joins the tags of every generator result it absorbed
    tracer.counts["generator_results"] += sum(len(p.source.split("+")) for p in result)


def _evaluate_dataset(tracer, args, result):
    tracer.counts["candidates"] += len(result.rows)


HOOKS = {
    "density.log_density_many": _kernel,
    "density.select_bandwidth": _select_bandwidth,
    "kdi.fit_profiles": _fit_profiles,
    "kdi.ambiguous_v3": _ambiguous_v3,
    "partitions.build_candidates": _build_candidates,
    "harness.evaluate_dataset": _evaluate_dataset,
}


class Tracer:
    """Wraps the traced names while installed; spans and counts are kept in
    memory and cleared by reset()."""

    def __init__(self):
        self.absent = []
        self.broken_hooks = set()
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.errors = Counter()
        self.member_sets = set()
        self._stack = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a later refactor changed the signature: drop the counter, keep timing
                    self.broken_hooks.add(name)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "kdeval" or key.startswith("kdeval.")]
        self.absent = []
        for module_name, attr in TRACED:
            module = sys.modules.get(f"kdeval.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset()."""
        spans = self.spans
        enclosed = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                enclosed[parent] += end - start
        self_s = Counter()
        calls = Counter()
        kernel_by_caller = Counter()
        generate = score = rank = write = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - enclosed[i]
            calls[name] += 1
            if name == "density.log_density_many" and parent >= 0:
                kernel_by_caller[spans[parent][0]] += end - start
            if name == "harness.write_report":
                write += end - start
            elif parent >= 0 and spans[parent][0] == "harness.evaluate_dataset":
                if name == "partitions.build_candidates":
                    generate += end - start
                elif name == "harness.rank_candidates":
                    rank += end - start
                else:
                    score += end - start
        c = self.counts
        return {
            "partitions.gmm_em_s": self_s["partitions.gmm_em"],
            "partitions.gmm_em_calls": calls["partitions.gmm_em"],
            "partitions.kmeans_s": self_s["partitions.kmeans"],
            "partitions.kmeans_calls": calls["partitions.kmeans"],
            "partitions.linkage_s": self_s["partitions.linkage"] + self_s["partitions.fcluster"],
            "partitions.distinct_candidate_share": _share(c["candidates_kept"], c["generator_results"]),
            "density.select_bandwidth_s": self_s["density.select_bandwidth"],
            "density.select_bandwidth_calls": calls["density.select_bandwidth"],
            "density.kernel_s": self_s["density.log_density_many"],
            "density.kernel_calls": calls["density.log_density_many"],
            "density.kernel_pairs": c["kernel_pairs"],
            "density.kernel_cv_s": kernel_by_caller["density.select_bandwidth"],
            "density.kernel_cross_s": kernel_by_caller["kdi.cross_log_density"],
            "density.kernel_mc_s": kernel_by_caller["kdi.ambiguous_v3"],
            "density.cluster_scale_s": self_s["density.cluster_scale"],
            "density.fallback_calls": calls["density.fallback_bandwidth"],
            "density.cv_edge_optima": c["cv_edge_optima"],
            "kdi.fit_profiles_s": self_s["kdi.fit_profiles"],
            "kdi.clusters_fitted": c["clusters_fitted"],
            "kdi.distinct_cluster_share": _share(len(self.member_sets), c["clusters_fitted"]),
            "kdi.cross_log_density_s": self_s["kdi.cross_log_density"],
            "kdi.kdi_index_s": self_s["kdi.kdi_index"],
            "kdi.ambiguous_v3_s": self_s["kdi.ambiguous_v3"],
            "kdi.mc_queries": c["mc_queries"],
            "kdi.variants_s": sum(self_s[name] for name in VARIANTS),
            "baselines.silhouette_s": self_s["baselines.silhouette"],
            "baselines.calinski_harabasz_s": self_s["baselines.calinski_harabasz"],
            "baselines.davies_bouldin_s": self_s["baselines.davies_bouldin"],
            "baselines.adjusted_rand_index_s": self_s["baselines.adjusted_rand_index"],
            "baselines.undefined_scores": sum(self.errors[name] for name in BASELINES),
            "harness.generate_s": generate,
            "harness.score_s": score,
            "harness.rank_s": rank,
            "harness.write_report_s": write,
            "harness.candidates": c["candidates"],
            "svgplot.emit_svg_s": self_s["svgplot.emit_svg"],
            "svgplot.emit_svg_calls": calls["svgplot.emit_svg"],
        }

    def load_seconds(self):
        return sum(end - start for name, start, end, _ in self.spans if name == "data_io.load_dataset")


def _share(part, whole):
    return part / whole if whole else 0.0
