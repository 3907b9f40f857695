"""Benchmark harness: candidates -> per-index scores -> rankings -> champion
success -> reports.

A candidate partition succeeds for an index when it is ranked first by that
index and its adjusted Rand index against the reference partition exceeds
0.95 (strict).  Report files are byte-deterministic for a fixed RunConfig;
wall-clock timings go to a separate runtime.txt.
"""

import collections
import csv
import dataclasses
import math
import os
import time
import warnings

from .baselines import (
    DIRECTIONS,
    HIGHER_BETTER,
    SMALLER_BETTER,
    UndefinedScoreError,
    adjusted_rand_index,
    calinski_harabasz,
    davies_bouldin,
    silhouette,
)
from .config import config_snapshot, save_params_config
from .kdi import AMBIGUOUS, SIMILARITY, fit_profiles, kdi_index
from .partitions import build_candidates, save_partitions
from .svgplot import emit_svg

SUCCESS_THRESHOLD = 0.95
TOP_N = 5

CALIBRATION_DELTAS = tuple(round(0.1 * i, 1) for i in range(1, 10))
CALIBRATION_ALPHAS = (0.5, 1.0, 2.0, 3.0)


@dataclasses.dataclass
class CandidateResult:
    source: str
    K: int
    scores: dict
    ari: float = None
    bandwidths: tuple = ()


@dataclasses.dataclass
class EvaluationReport:
    dataset_id: str
    n: int
    d: int
    rows: list
    rankings: dict
    champion_ari: dict
    warnings: list
    runtime: dict
    snapshot: list
    candidates: list

    @property
    def success(self):
        """index -> whether its champion's ARI exceeds SUCCESS_THRESHOLD;
        None without reference labels."""
        return {index: None if ari is None else ari > SUCCESS_THRESHOLD
                for index, ari in self.champion_ari.items()}

    def top(self, index, count=TOP_N):
        return self.rankings[index][:count]


def rank_candidates(entries, direction):
    """Order candidate positions by score.

    entries: (value-or-None, K, source) per candidate.  Sorting follows the
    index direction; ties break toward smaller K, then lexicographic source
    tag; undefined (None or non-finite) scores always rank last.
    """
    if not entries:
        raise ValueError("nothing to rank")
    keyed = []
    for pos, (value, k, source) in enumerate(entries):
        defined = value is not None and math.isfinite(value)
        if defined:
            sort_value = -float(value) if direction == HIGHER_BETTER else float(value)
            keyed.append((0, sort_value, int(k), str(source), pos))
        else:
            keyed.append((1, 0.0, int(k), str(source), pos))
    keyed.sort(key=lambda t: t[:4])
    return [t[4] for t in keyed]


def _candidates(config, dataset):
    """Every configured generator for every k in the config range, clamped
    to n (see build_candidates)."""
    k_hi = min(config.k_max, dataset.n)
    return build_candidates(dataset, range(config.k_min, k_hi + 1), config.seed, config.generators)


def _score_candidate(data, part, config, record, cache):
    """Fill one CandidateResult's score columns, recording failures.  cache is
    the dataset's profile cache (see fit_profiles)."""
    scores = {}
    bandwidths = ()
    for name, fn in (("ch", calinski_harabasz), ("sc", silhouette), ("db", davies_bouldin)):
        if name not in config.indices:
            continue
        try:
            scores[name] = fn(data, part).value
        except UndefinedScoreError as exc:
            scores[name] = None
            record(f"{name} undefined for {part.source}: {exc}")
    if "new" in config.indices:
        params = config.kdi_params
        profiles = fit_profiles(data, part, params, config.bw_spec(), cache=cache)
        score = kdi_index(data, part, params, profiles=profiles)
        scores["new"] = score.I
        scores["new_ia"] = score.I_a
        scores["new_is"] = score.I_s
        scores["new_ib"] = score.I_b
        if config.boundary_mix_weight > 0.0:
            w = config.boundary_mix_weight
            scores["new3"] = (1.0 - w) * score.I + w * score.I_b
        if config.include_variants:
            for prefix, table in (("ia_", AMBIGUOUS), ("is_", SIMILARITY)):
                for name, variant in table.items():
                    if name != "main":
                        scores[prefix + name] = variant(data, profiles, params)
        bandwidths = tuple(p.model.bandwidth for p in profiles)
    return scores, bandwidths


def ranked_indices(config):
    """Index columns that get a ranking (and a success flag)."""
    out = list(config.indices)
    if "new" in out and config.boundary_mix_weight > 0.0:
        out.append("new3")
    return out


def evaluate_dataset(config, dataset, candidates=None):
    """Run the full protocol on one dataset and return an EvaluationReport.

    Candidates default to every configured generator for every k in the
    config range (clamped to n), deduplicated, plus the reference partition
    when the dataset has labels.  Index or generator failures on individual
    candidates become warnings; with no candidate at all, the ValueError lists
    the distinct warnings.  Candidates that share a cluster share its density
    fit (one profile cache per call).
    """
    captured = []
    t0 = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if candidates is None:
            candidates = _candidates(config, dataset)
    captured.extend(str(w.message) for w in caught)
    t_generate = time.monotonic() - t0
    if not candidates:
        raise ValueError("no candidate partition was generated"
                         + "".join(f"\n  - {m}" for m in dict.fromkeys(captured)))

    reference = dataset.reference_labels
    t0 = time.monotonic()
    rows = []
    cache = {}
    for part in candidates:
        scores, bandwidths = _score_candidate(dataset, part, config, captured.append, cache)
        ari = adjusted_rand_index(part, reference) if reference is not None else None
        rows.append(
            CandidateResult(
                source=part.source, K=part.K, scores=scores, ari=ari, bandwidths=bandwidths
            )
        )
    t_score = time.monotonic() - t0
    # every profile was either fitted into the cache or read from it
    n_profiles = sum(len(row.bandwidths) for row in rows)

    rankings = {}
    for index in ranked_indices(config):
        direction = DIRECTIONS.get(index, SMALLER_BETTER)
        entries = [(row.scores.get(index), row.K, row.source) for row in rows]
        rankings[index] = rank_candidates(entries, direction)

    return EvaluationReport(
        dataset_id=dataset.id,
        n=dataset.n,
        d=dataset.d,
        rows=rows,
        rankings=rankings,
        champion_ari={index: rows[order[0]].ari for index, order in rankings.items()},
        warnings=captured,
        runtime={
            "generate_s": t_generate,
            "score_s": t_score,
            "profile_fits": len(cache),
            "profile_cache_hits": n_profiles - len(cache),
        },
        snapshot=config_snapshot(config),
        candidates=list(candidates),
    )


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _score_columns(report):
    cols = []
    for row in report.rows:
        for key in row.scores:
            if key not in cols:
                cols.append(key)
    return cols


def write_report(report, out_dir, dataset=None, emit_svgs=False):
    """Write report.csv, summary.txt, runtime.txt, the candidate partition
    directory, and (optionally) the top-5 SVGs per ranked index.

    report.csv and summary.txt are byte-deterministic; wall-clock timings are
    confined to runtime.txt.
    """
    os.makedirs(out_dir, exist_ok=True)
    score_cols = _score_columns(report)
    rank_cols = list(report.rankings)
    header = ["candidate", "source", "k"] + score_cols + ["ari"]
    header += [f"rank_{idx}" for idx in rank_cols] + ["bandwidths"]
    positions = {
        idx: {pos: rank for rank, pos in enumerate(order, start=1)}
        for idx, order in report.rankings.items()
    }
    lines = [header]
    for pos, row in enumerate(report.rows):
        fields = [str(pos), row.source, str(row.K)]
        fields += [_fmt(row.scores.get(col)) for col in score_cols]
        fields.append(_fmt(row.ari))
        fields += [str(positions[idx][pos]) for idx in rank_cols]
        fields.append(";".join(repr(float(h)) for h in row.bandwidths))
        lines.append(fields)
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)

    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"dataset: {report.dataset_id} (n={report.n}, d={report.d})\n")
        fh.write(f"candidates: {len(report.rows)}\n\n")
        for index in report.rankings:
            fh.write(f"== {index} (top {TOP_N}) ==\n")
            for rank, pos in enumerate(report.top(index), start=1):
                row = report.rows[pos]
                value = row.scores.get(index)
                value_text = "undefined" if value is None else f"{value:.5f}"
                ari_text = "" if row.ari is None else f"  AR={row.ari:.5f}"
                fh.write(f"  {rank}. K={row.K} {index}={value_text}  [{row.source}]{ari_text}\n")
            champ_ari = report.champion_ari[index]
            if champ_ari is None:
                fh.write("  champion ARI: n/a (no reference labels)\n")
            else:
                verdict = "SUCCEEDED" if report.success[index] else "FAILED"
                fh.write(f"  champion ARI: {champ_ari:.5f} -> {verdict}\n")
            fh.write("\n")
        if report.warnings:
            fh.write("warnings:\n")
            for message in report.warnings:
                fh.write(f"  - {message}\n")
            fh.write("\n")
        fh.write("config:\n")
        for key, value in report.snapshot:
            fh.write(f"  {key} = {value}\n")

    with open(os.path.join(out_dir, "runtime.txt"), "w", encoding="utf-8") as fh:
        for name, value in report.runtime.items():
            fh.write(f"{name}: {value}\n" if isinstance(value, int) else f"{name}: {value:.3f}\n")

    save_partitions(os.path.join(out_dir, "candidates"), report.candidates)

    if emit_svgs and dataset is not None and dataset.d in (2, 3):
        for index in report.rankings:
            for rank, pos in enumerate(report.top(index), start=1):
                row = report.rows[pos]
                emit_svg(
                    dataset,
                    report.candidates[pos],
                    os.path.join(out_dir, f"top5_{index}_{rank}.svg"),
                    index_name=index,
                    index_value=row.scores.get(index),
                    ari=row.ari,
                )


@dataclasses.dataclass
class AccuracyTable:
    grid: dict  # index -> {dataset_id: 'S' | 'F'}
    dataset_ids: list

    @property
    def counts(self):
        """index -> (succeeded, total), read off the grid."""
        return {i: (list(cells.values()).count("S"), len(cells)) for i, cells in self.grid.items()}

    def summary(self, index):
        return "{}/{}".format(*self.counts[index])


def aggregate_accuracy(reports):
    """Aggregate success flags across datasets into per-index counts and an
    S/F grid.  Reports without reference labels are excluded with a warning;
    an empty (or fully excluded) input, and a dataset id shared by two
    reports, are errors."""
    if not reports:
        raise ValueError("no reports to aggregate")
    ids = collections.Counter(report.dataset_id for report in reports)
    repeated = [repr(i) for i, count in ids.items() if count > 1]
    if repeated:
        raise ValueError(f"repeated dataset ids: {', '.join(repeated)}")
    usable = []
    for report in reports:
        if any(flag is not None for flag in report.success.values()):
            usable.append(report)
        else:
            warnings.warn(f"report {report.dataset_id} has no reference labels; excluded")
    if not usable:
        raise ValueError("no reports with success flags")
    flags = [(report.dataset_id, report.success) for report in usable]
    grid = {
        index: {d: "S" if s[index] else "F" for d, s in flags if s.get(index) is not None}
        for index in flags[0][1]
    }
    return AccuracyTable(grid=grid, dataset_ids=[d for d, _ in flags])


def write_accuracy(table, out_dir):
    """Write accuracy.csv (per-index counts) and grid.csv (S/F per dataset)."""
    os.makedirs(out_dir, exist_ok=True)
    accuracy = [("index", "succeeded", "total", "accuracy")]
    accuracy += [(i, s, t, table.summary(i)) for i, (s, t) in table.counts.items()]
    grid = [("index", *table.dataset_ids)]
    grid += [(i, *(cells.get(d, "") for d in table.dataset_ids)) for i, cells in table.grid.items()]
    for name, rows in (("accuracy.csv", accuracy), ("grid.csv", grid)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def calibrate(config, training_datasets, out_path=None):
    """Grid-search delta and alpha1=alpha2 on labeled training datasets,
    maximizing the success count of the index with the configured ambiguous
    and similarity variants.

    Ties prefer delta closest to 0.5, then the smaller alpha.  The winning
    KdiParams are returned and, when out_path is given, written as a config
    file that reproduces them.
    """
    if not training_datasets:
        raise ValueError("no training datasets")
    for ds in training_datasets:
        if ds.reference_labels is None:
            raise ValueError(f"training dataset {ds.id} has no reference labels")
    base, spec = config.kdi_params, config.bw_spec()
    successes = {(d, a): 0 for d in CALIBRATION_DELTAS for a in CALIBRATION_ALPHAS}
    for ds in training_datasets:
        candidates = _candidates(config, ds)
        aris = [adjusted_rand_index(part, ds.reference_labels) for part in candidates]
        cache = {}
        for alpha in CALIBRATION_ALPHAS:
            swept = dataclasses.replace(base, alpha1=alpha, alpha2=alpha)
            scores = [
                kdi_index(ds, part, swept, profiles=fit_profiles(ds, part, swept, spec, cache=cache))
                for part in candidates
            ]
            for delta in CALIBRATION_DELTAS:
                entries = [
                    (delta * score.I_a + (1.0 - delta) * score.I_s, part.K, part.source)
                    for score, part in zip(scores, candidates)
                ]
                order = rank_candidates(entries, SMALLER_BETTER)
                if aris[order[0]] > SUCCESS_THRESHOLD:
                    successes[(delta, alpha)] += 1
    cells = sorted(
        successes.items(), key=lambda item: (-item[1], abs(item[0][0] - 0.5), item[0][1])
    )
    (best_delta, best_alpha), _count = cells[0]
    best = dataclasses.replace(base, delta=best_delta, alpha1=best_alpha, alpha2=best_alpha)
    if out_path is not None:
        save_params_config(out_path, best, seed=config.seed)
    return best
