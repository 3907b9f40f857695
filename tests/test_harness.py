import csv
import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeval import cli, harness, kdi
from kdeval.baselines import HIGHER_BETTER, SMALLER_BETTER
from kdeval.config import (
    ENV_CONFIG,
    build_run_config,
    load_config_file,
    save_params_config,
)
from kdeval.data_io import Dataset, make_blobs, save_dataset_csv
from kdeval.density import BandwidthSearchSpec, choose_bandwidth
from kdeval.harness import (
    aggregate_accuracy,
    calibrate,
    evaluate_dataset,
    rank_candidates,
    write_accuracy,
    write_report,
)
from kdeval.kdi import (
    KdiParams,
    ambiguous_v1,
    ambiguous_v2,
    ambiguous_v3,
    cross_log_density,
    fit_profiles,
    similarity_v1,
    similarity_v2,
    similarity_v3,
)
from kdeval.partitions import canonicalize, load_partitions
from kdeval.svgplot import emit_svg

from _fixtures import four_blobs

HERE = os.path.dirname(__file__)


def _easy_dataset(seed=6):
    return make_blobs(2, 10, [(0.0, 0.0), (8.0, 8.0)], sigma=0.5, seed=seed, id="golden")


def test_rank_smaller_better_order():
    entries = [(0.3, 2, "a"), (0.1, 2, "b"), (0.7, 2, "c")]
    assert rank_candidates(entries, SMALLER_BETTER) == [1, 0, 2]


def test_rank_tie_breaks_by_smaller_k_then_source():
    entries = [(0.5, 5, "a"), (0.5, 3, "z"), (0.5, 3, "b")]
    assert rank_candidates(entries, SMALLER_BETTER) == [2, 1, 0]


def test_rank_undefined_last_either_direction():
    entries = [(None, 2, "a"), (0.9, 3, "b"), (0.4, 4, "c")]
    assert rank_candidates(entries, HIGHER_BETTER) == [1, 2, 0]
    assert rank_candidates(entries, SMALLER_BETTER) == [2, 1, 0]


def test_evaluate_success_flags_and_reference_row():
    ds = _easy_dataset()
    config = build_run_config(seed=123, k_min=2, k_max=4)
    report = evaluate_dataset(config, ds)
    assert report.success["ch"] is True
    # the reference grouping coincides with an easy k=2 candidate
    ref_rows = [r for r in report.rows if "reference" in r.source]
    assert len(ref_rows) == 1
    assert ref_rows[0].ari == 1.0
    # rankings contain every candidate exactly once
    for order in report.rankings.values():
        assert sorted(order) == list(range(len(report.rows)))


def test_evaluate_without_labels_omits_success():
    ds = _easy_dataset()
    unlabeled = Dataset(ds.points, id="nolabels")
    config = build_run_config(seed=123, k_min=2, k_max=3)
    report = evaluate_dataset(config, unlabeled)
    assert all(flag is None for flag in report.success.values())
    assert all(r.ari is None for r in report.rows)


def test_undefined_scores_warn_and_rank_last():
    # k = n makes CH and silhouette undefined for the singleton candidate
    ds = make_blobs(1, 6, [(0.0, 0.0)], sigma=1.0, seed=3, id="six")
    config = build_run_config(seed=4, k_min=2, k_max=6)
    report = evaluate_dataset(config, ds)
    undefined = [i for i, r in enumerate(report.rows) if r.scores.get("ch") is None]
    assert undefined
    for pos in undefined:
        assert report.rankings["ch"].index(pos) >= len(report.rows) - len(undefined)
    assert any("ch undefined" in w for w in report.warnings)
    # champion score is extremal in the right direction among defined scores
    for index, order in report.rankings.items():
        champ = report.rows[order[0]].scores.get(index)
        defined = [r.scores[index] for r in report.rows if r.scores.get(index) is not None]
        if champ is None or not defined:
            continue
        if index in ("ch", "sc"):
            assert champ == max(defined)
        else:
            assert champ == min(defined)


def test_report_csv_matches_golden(tmp_path):
    ds = _easy_dataset()
    config = build_run_config(seed=123, k_min=2, k_max=4)
    report = evaluate_dataset(config, ds)
    write_report(report, tmp_path, dataset=ds, emit_svgs=False)
    produced = (tmp_path / "report.csv").read_bytes()
    golden = open(os.path.join(HERE, "data", "golden_report.csv"), "rb").read()
    assert produced == golden


def test_aggregate_accuracy_counts():
    ds = _easy_dataset()
    config = build_run_config(seed=123, k_min=2, k_max=4)
    r1 = evaluate_dataset(config, ds)
    r2 = evaluate_dataset(config, make_blobs(2, 10, [(0, 0), (9, 9)], 0.5, seed=7, id="g2"))
    r3 = evaluate_dataset(config, make_blobs(3, 8, [(0, 0), (9, 9), (0, 9)], 0.5, seed=8, id="g3"))
    table = aggregate_accuracy([r1, r2, r3])
    for index, (succeeded, total) in table.counts.items():
        assert total == 3
        assert table.summary(index) == f"{succeeded}/3"
        flags = [r.success[index] for r in (r1, r2, r3)]
        assert succeeded == sum(flags)
        cells = [table.grid[index][d] for d in ("golden", "g2", "g3")]
        assert cells == ["S" if f else "F" for f in flags]


def test_aggregate_accuracy_empty_is_error():
    with pytest.raises(ValueError):
        aggregate_accuracy([])


def test_aggregate_excludes_unlabeled_with_warning(tmp_path):
    ds = _easy_dataset()
    config = build_run_config(seed=123, k_min=2, k_max=3)
    labeled = evaluate_dataset(config, ds)
    unlabeled = evaluate_dataset(config, Dataset(ds.points, id="bare"))
    with pytest.warns(UserWarning, match="bare"):
        table = aggregate_accuracy([labeled, unlabeled])
    assert table.dataset_ids == ["golden"]
    write_accuracy(table, tmp_path)
    assert (tmp_path / "accuracy.csv").exists()
    assert (tmp_path / "grid.csv").exists()


def test_aggregate_accuracy_rejects_repeated_dataset_ids():
    ds = _easy_dataset()
    config = build_run_config(seed=123, k_min=2, k_max=3, indices=("ch",))
    # the same points under labels that no split into the two blobs matches
    reports = [
        evaluate_dataset(config, Dataset(ds.points, labels, id="same"))
        for labels in (ds.reference_labels, np.arange(ds.n) % 3)
    ]
    assert [r.success["ch"] for r in reports] == [True, False]
    other = evaluate_dataset(config, Dataset(ds.points, ds.reference_labels, id="other"))
    with pytest.raises(ValueError, match="repeated dataset ids: 'same'"):
        aggregate_accuracy([reports[0], other, reports[1]])


def test_accuracy_totals_equal_the_grid_counts(tmp_path):
    report = evaluate_dataset(build_run_config(seed=123, k_min=2, k_max=3), _easy_dataset())
    passed = dict.fromkeys(report.champion_ari, 1.0)
    # every index succeeds on a and fails on b; on c, sc has no flag
    reports = [
        dataclasses.replace(report, dataset_id="a", champion_ari=passed),
        dataclasses.replace(report, dataset_id="b", champion_ari=dict.fromkeys(passed, 0.0)),
        dataclasses.replace(report, dataset_id="c", champion_ari={**passed, "sc": None}),
    ]
    table = aggregate_accuracy(reports)
    write_accuracy(table, tmp_path)
    with open(tmp_path / "grid.csv", newline="") as fh:
        (_, *ids), *grid = csv.reader(fh)
    with open(tmp_path / "accuracy.csv", newline="") as fh:
        _, *accuracy = csv.reader(fh)
    assert ids == ["a", "b", "c"]
    assert [row[0] for row in accuracy] == [row[0] for row in grid] == list(report.rankings)
    for (index, succeeded, total, text), (_, *cells) in zip(accuracy, grid):
        assert int(succeeded) == cells.count("S")
        assert int(total) == cells.count("S") + cells.count("F")
        assert text == f"{succeeded}/{total}" == table.summary(index)
        assert cells == (["S", "F", ""] if index == "sc" else ["S", "F", "S"])


def test_emit_svg_two_points(tmp_path):
    ds = Dataset([[0.0, 0.0], [1.0, 1.0]], id="two")
    part = canonicalize([0, 1])
    path = tmp_path / "two.svg"
    emit_svg(ds, part, path)
    text = path.read_text()
    assert text.count("<circle") == 2
    fills = {line.split('fill="')[1].split('"')[0] for line in text.splitlines() if "<circle" in line}
    assert len(fills) == 2


def test_emit_svg_deterministic(tmp_path):
    ds = make_blobs(2, 8, [(0, 0), (5, 5)], sigma=0.4, seed=3)
    part = canonicalize(list(ds.reference_labels))
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    emit_svg(ds, part, a, index_name="new", index_value=0.5, ari=0.0694301)
    emit_svg(ds, part, b, index_name="new", index_value=0.5, ari=0.0694301)
    assert a.read_bytes() == b.read_bytes()
    assert "AR=0.06943" in a.read_text()  # report-format fixture


def test_emit_svg_matches_golden(tmp_path):
    blobs = make_blobs(4, 12, [(0, 0), (10, 0), (0, 10), (10, 10)], sigma=0.8, seed=2, id="svg")
    part = canonicalize(list(blobs.reference_labels))
    path = tmp_path / "four.svg"
    emit_svg(blobs, part, path, index_name="new", index_value=0.12345, ari=1.0)
    golden = open(os.path.join(HERE, "data", "golden_scatter.svg"), "rb").read()
    assert path.read_bytes() == golden
    fills = {
        line.split('fill="')[1].split('"')[0]
        for line in path.read_text().splitlines()
        if "<circle" in line
    }
    assert len(fills) == 4


def test_emit_svg_rejects_high_dims(tmp_path):
    ds = Dataset(np.zeros((3, 4)) + np.arange(4), id="4d")
    with pytest.raises(ValueError):
        emit_svg(ds, canonicalize([0, 0, 1]), tmp_path / "x.svg")


def test_emit_svg_unwritable_path(tmp_path):
    ds = Dataset([[0.0, 0.0], [1.0, 1.0]], id="two")
    with pytest.raises(OSError):
        emit_svg(ds, canonicalize([0, 1]), tmp_path)  # a directory, not a file


def test_emit_svg_3d_projection_note(tmp_path):
    ds = Dataset([[0.0, 0.0, 5.0], [1.0, 1.0, -5.0], [2.0, 0.5, 0.0]], id="3d")
    path = tmp_path / "p.svg"
    emit_svg(ds, canonicalize([0, 1, 1]), path, index_name="new", index_value=0.1)
    assert "first 2 of 3 axes" in path.read_text()


def test_index_and_generator_subsets():
    ds = _easy_dataset()
    config = build_run_config(
        seed=2, k_min=2, k_max=3, indices=("ch", "db"), generators=("kmeans", "agg-single")
    )
    report = evaluate_dataset(config, ds)
    assert set(report.rankings) == {"ch", "db"}
    for row in report.rows:
        assert "new" not in row.scores and "sc" not in row.scores
        assert row.source == "reference" or any(
            tag.startswith(("kmeans", "agg-single")) for tag in row.source.split("+")
        )


def test_calibrate_easy_dataset_tie_breaks(tmp_path):
    rng = np.random.default_rng(1)
    pts = np.concatenate(
        [np.asarray(c) + s * rng.standard_normal((40, 2)) for c, s in
         [((0, 0), 0.4), ((10, 0), 0.6), ((0, 10), 0.8)]]
    )
    ds = Dataset(pts, reference_labels=[0] * 40 + [1] * 40 + [2] * 40, id="train")
    config = build_run_config(seed=5, k_min=2, k_max=5)
    out = tmp_path / "calibrated.ini"
    best = calibrate(config, [ds], out_path=out)
    assert best.delta == 0.5
    assert best.alpha1 == best.alpha2 == 0.5
    # reloading the written file reproduces the winner
    overrides = load_config_file(out)
    rebuilt = build_run_config(seed=None, file_overrides=overrides)
    assert rebuilt.kdi_params == best


def _without_profile_cache(monkeypatch):
    """Route the harness's fit_profiles calls around the profile cache."""

    def uncached(*args, cache=None, **kwargs):
        return fit_profiles(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_profiles", uncached)


def _report_files(config, dataset):
    report = evaluate_dataset(config, dataset)
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out, dataset=dataset)
        files = {}
        for root, _dirs, names in os.walk(out):
            for name in names:
                if name != "runtime.txt":
                    with open(os.path.join(root, name), "rb") as fh:
                        files[os.path.relpath(os.path.join(root, name), out)] = fh.read()
    return files


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(12, 40),
    d=st.integers(1, 3),
    coincident=st.integers(0, 8),
    k_max=st.integers(2, 5),
)
def test_profile_cache_keeps_reports_bit_identical(seed, n, d, coincident, k_max):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) + 5.0 * rng.integers(0, 3, size=(n, 1))
    pts[:coincident] = pts[0]
    ds = Dataset(pts, reference_labels=rng.integers(0, 3, n), id="prop")
    config = build_run_config(seed=seed, k_min=2, k_max=k_max)
    cached = _report_files(config, ds)
    with pytest.MonkeyPatch.context() as mp:
        _without_profile_cache(mp)
        assert _report_files(config, ds) == cached
    assert "report.csv" in cached and "summary.txt" in cached


def _count_bandwidth_choices(monkeypatch):
    """Record the points of every choose_bandwidth call that kdi makes."""
    calls = []

    def counting(points, spec=None):
        calls.append(points.tobytes())
        return choose_bandwidth(points, spec)

    monkeypatch.setattr(kdi, "choose_bandwidth", counting)
    return calls


def _member_sets(candidates):
    return [np.flatnonzero(part.labels == q).tobytes() for part in candidates for q in range(part.K)]


def test_one_bandwidth_choice_per_distinct_cluster(monkeypatch, tmp_path):
    calls = _count_bandwidth_choices(monkeypatch)
    ds = make_blobs(3, 20, [(0, 0), (6, 0), (0, 6)], sigma=0.8, seed=3)
    report = evaluate_dataset(build_run_config(seed=2, k_min=2, k_max=5), ds)
    clusters = _member_sets(report.candidates)
    distinct = len(set(clusters))
    assert len(calls) == len(set(calls)) == distinct < len(clusters)
    assert report.runtime["profile_fits"] == distinct
    assert report.runtime["profile_cache_hits"] == len(clusters) - distinct
    write_report(report, tmp_path)
    lines = (tmp_path / "runtime.txt").read_text().splitlines()
    assert f"profile_fits: {distinct}" in lines
    assert f"profile_cache_hits: {len(clusters) - distinct}" in lines


def test_calibrate_fits_each_distinct_cluster_once_across_alphas(monkeypatch):
    calls = _count_bandwidth_choices(monkeypatch)
    ds = make_blobs(3, 15, [(0, 0), (5, 0), (0, 5)], sigma=0.9, seed=4, id="t")
    config = build_run_config(seed=3, k_min=2, k_max=4)
    calibrate(config, [ds])
    distinct = set(_member_sets(harness._candidates(config, ds)))
    assert len(harness.CALIBRATION_ALPHAS) > 1  # every alpha after the first reads the cache
    assert len(calls) == len(set(calls)) == len(distinct)


def test_calibrate_same_with_and_without_profile_cache(monkeypatch, tmp_path):
    train = [
        make_blobs(3, 15, [(0, 0), (5, 0), (0, 5)], sigma=0.9, seed=seed, id=f"t{seed}")
        for seed in (4, 5)
    ]
    config = build_run_config(seed=3, k_min=2, k_max=4)
    cached = calibrate(config, train, out_path=tmp_path / "cached.ini")
    _without_profile_cache(monkeypatch)
    uncached = calibrate(config, train, out_path=tmp_path / "uncached.ini")
    assert cached == uncached
    assert (tmp_path / "cached.ini").read_bytes() == (tmp_path / "uncached.ini").read_bytes()


def test_calibrate_scores_the_configured_variants(monkeypatch):
    calls = []
    for name in ("ambiguous_v1", "similarity_v2", "ambiguous_index", "similarity_index"):
        def spy(*args, _fn=getattr(kdi, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kdi, name, spy)
    ds = make_blobs(3, 15, [(0, 0), (5, 0), (0, 5)], sigma=0.9, seed=4, id="t")
    config = build_run_config(
        seed=3, k_min=2, k_max=3, ambiguous_variant="v1", similarity_variant="v2"
    )
    best = calibrate(config, [ds])
    scored = len(harness.CALIBRATION_ALPHAS) * len(harness._candidates(config, ds))
    assert calls.count("ambiguous_v1") == calls.count("similarity_v2") == scored
    assert "ambiguous_index" not in calls and "similarity_index" not in calls
    assert (best.ambiguous_variant, best.similarity_variant) == ("v1", "v2")


def test_calibrate_empty_training_list_is_error():
    config = build_run_config(seed=5)
    with pytest.raises(ValueError):
        calibrate(config, [])


def test_calibrate_requires_labels():
    ds = Dataset([[0.0], [1.0], [2.0], [3.0]], id="bare")
    config = build_run_config(seed=5, k_min=2, k_max=2)
    with pytest.raises(ValueError):
        calibrate(config, [ds])


def test_config_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "cfg.ini"
    save_params_config(path, KdiParams(delta=0.3, alpha1=2.0, seed=9), seed=9)
    overrides = load_config_file(path)
    config = build_run_config(seed=None, file_overrides=overrides)
    assert config.seed == 9
    assert config.kdi_params.delta == 0.3
    # CLI flag overrides the file
    config2 = build_run_config(seed=77, file_overrides=overrides)
    assert config2.seed == 77
    # env var points at the config when no flag is given
    monkeypatch.setenv(ENV_CONFIG, str(path))
    from kdeval.config import resolve_config_path

    assert resolve_config_path(None) == str(path)
    assert resolve_config_path("explicit.ini") == "explicit.ini"


def test_params_config_round_trip(tmp_path):
    defaults = KdiParams()
    params = KdiParams(
        delta=0.3, alpha1=2.0, alpha2=1.5, beta1=0.5, beta2=0.25, rho=0.75,
        min_cluster_size=4, ambiguous_variant="v2", similarity_variant="v3",
        mc_samples=123, seed=7, pair_local=False, boundary_members_only=True,
        s_v3_center="median", s_v3_metric="squared", s_v3_normalize=False,
    )
    for f in dataclasses.fields(KdiParams):
        assert getattr(params, f.name) != getattr(defaults, f.name), f.name
    path = tmp_path / "params.ini"
    save_params_config(path, params, seed=11)
    config = build_run_config(seed=None, file_overrides=load_config_file(path))
    assert config.seed == 11
    assert config.kdi_params == params


def test_config_file_run_and_bandwidth_sections(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nseed = 3\nk_max = 4\nindices = new, ch\nemit_svg = yes\n"
        "boundary_mix_weight = 0.5\n[bandwidth]\ngrid = 0.5, 1.0\nfolds = 3\n"
    )
    config = build_run_config(seed=None, file_overrides=load_config_file(path))
    assert (config.seed, config.k_min, config.k_max) == (3, 2, 4)
    assert config.indices == ("new", "ch") and config.emit_svg is True
    assert config.boundary_mix_weight == 0.5
    assert config.bandwidth_grid == (0.5, 1.0) and config.folds == 3
    for text in ("[run]\nbandwidth_grid = 1\n", "[kdi]\nnope = 1\n", "[other]\nx = 1\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown"):
            build_run_config(seed=1, file_overrides=load_config_file(path))


def test_folds_apply_to_auto_grid(monkeypatch):
    ds = make_blobs(2, 30, [(0.0, 0.0), (8.0, 8.0)], sigma=0.5, seed=6)
    ref = canonicalize(ds.reference_labels, source="reference")
    bandwidths = {}
    for folds in (2, 5, 10):
        config = build_run_config(seed=1, indices=("new",), folds=folds)
        report = evaluate_dataset(config, ds, candidates=[ref])
        bandwidths[folds] = report.rows[0].bandwidths
        direct = fit_profiles(ds, ref, config.kdi_params, config.bw_spec())
        assert bandwidths[folds] == tuple(p.model.bandwidth for p in direct)
    assert bandwidths[2] != bandwidths[5]
    # calibrate fits its profiles with the same folds
    seen = []

    def spy(data, part, params, bw_spec=None, cache=None):
        seen.append(bw_spec.folds)
        return fit_profiles(data, part, params, bw_spec, cache=cache)

    monkeypatch.setattr(harness, "fit_profiles", spy)
    calibrate(build_run_config(seed=1, k_min=2, k_max=2, folds=3), [ds])
    assert seen and set(seen) == {3}
    with pytest.raises(ValueError, match="folds"):
        build_run_config(seed=1, folds=1)


def test_bw_spec_carries_folds_and_kdi_seed():
    ds = make_blobs(2, 30, [(0.0, 0.0), (8.0, 8.0)], sigma=0.5, seed=6)
    ref = canonicalize(ds.reference_labels, source="reference")
    grids = (("", None), ("0.25, 0.3, 0.35, 0.4, 0.45, 0.5", (0.25, 0.3, 0.35, 0.4, 0.45, 0.5)))
    for grid_text, grid in grids:
        overrides = {("bandwidth", "grid"): grid_text, ("bandwidth", "folds"): "3",
                     ("kdi", "seed"): "6"}
        config = build_run_config(seed=1, file_overrides=overrides, indices=("new",))
        assert config.bw_spec() == BandwidthSearchSpec(grid=grid, folds=3, seed=6)
        # explicit and auto grids alike shuffle their folds with the KDI seed
        report = evaluate_dataset(config, ds, candidates=[ref])

        def bandwidths(seed):
            profiles = fit_profiles(ds, ref, KdiParams(), BandwidthSearchSpec(grid, 3, seed))
            return tuple(p.model.bandwidth for p in profiles)

        assert report.rows[0].bandwidths == bandwidths(6) != bandwidths(1)


def test_folds_only_in_bandwidth_section():
    with pytest.raises(ValueError, match=r"unknown \[run\] option 'folds'"):
        build_run_config(seed=1, file_overrides={("run", "folds"): "3"})


def test_seed_is_mandatory():
    with pytest.raises(ValueError):
        build_run_config(seed=None)


def test_cli_evaluate_and_rank_round_trip(tmp_path, capsys):
    ds = _easy_dataset()
    data_path = tmp_path / "easy.csv"
    save_dataset_csv(ds, data_path)
    out1 = tmp_path / "run"
    rc = cli.main(
        ["evaluate", str(data_path), "--label-column", "-1", "--k-min", "2", "--k-max", "4",
         "--seed", "123", "--out", str(out1)]
    )
    assert rc == 0
    report_bytes = (out1 / "report.csv").read_bytes()
    # rank the candidates evaluate wrote back through the rank command
    out2 = tmp_path / "rank"
    rc = cli.main(
        ["rank", str(data_path), "--partitions", str(out1 / "candidates"), "--label-column", "-1",
         "--seed", "123", "--out", str(out2)]
    )
    assert rc == 0
    assert (out2 / "report.csv").read_bytes() == report_bytes


def test_cli_rank_keeps_a_comma_in_a_candidate_source(tmp_path):
    ds = _easy_dataset()
    data_path = tmp_path / "easy.csv"
    save_dataset_csv(ds, data_path)
    parts = tmp_path / "parts"
    parts.mkdir()
    np.savetxt(parts / "a,b.txt", ds.reference_labels, fmt="%d")
    np.savetxt(parts / "c.txt", np.arange(ds.n) % 2, fmt="%d")
    out = tmp_path / "rank"
    rc = cli.main(["rank", str(data_path), "--partitions", str(parts), "--label-column", "-1",
                   "--seed", "1", "--out", str(out)])
    assert rc == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    assert [row[header.index("source")] for row in rows] == ["a,b", "c"]
    assert [p.source for p in load_partitions(out / "candidates")] == ["a,b", "c"]


def test_cli_names_generator_failures_when_no_candidate_survives(tmp_path, capsys):
    # at 1e155 every squared distance overflows, so every generator fails
    path = tmp_path / "huge.csv"
    save_dataset_csv(Dataset(four_blobs(seed=1, per_cluster=15).points * 1e155, id="huge"), path)
    assert cli.main(["evaluate", str(path), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "no candidate partition was generated" in err
    assert "linkage single failed" in err and "generator kmeans failed for k=2" in err


def test_cli_bench(tmp_path):
    for seed, name in ((6, "a"), (7, "b")):
        save_dataset_csv(make_blobs(2, 8, [(0, 0), (8, 8)], 0.5, seed=seed, id=name),
                         tmp_path / f"{name}.csv")
    out = tmp_path / "bench"
    rc = cli.main(
        ["bench", str(tmp_path), "--label-column", "-1", "--k-min", "2", "--k-max", "3",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "accuracy.csv").exists()
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "index,a,b"


def test_cli_bench_quotes_a_comma_in_a_dataset_id(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for seed, name in ((6, "a,b"), (7, "c")):
        save_dataset_csv(make_blobs(2, 8, [(0, 0), (8, 8)], 0.5, seed=seed), data / f"{name}.csv")
    out = tmp_path / "bench"
    rc = cli.main(
        ["bench", str(data), "--label-column", "-1", "--k-min", "2", "--k-max", "3",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    with open(out / "grid.csv", newline="") as fh:
        grid = list(csv.reader(fh))
    assert grid[0] == ["index", "a,b", "c"]
    assert len(grid) > 1 and all(len(row) == len(grid[0]) for row in grid)
    assert all(cell in ("S", "F") for row in grid[1:] for cell in row[1:])
    with open(out / "accuracy.csv", newline="") as fh:
        accuracy = list(csv.reader(fh))
    assert accuracy[0] == ["index", "succeeded", "total", "accuracy"]
    assert all(len(row) == 4 and row[3] == f"{row[1]}/{row[2]}" for row in accuracy[1:])


def test_cli_bench_keeps_going_past_a_bad_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "a_bad.csv").write_text("0.0,1.0,0\n0.5,oops,1\n")
    save_dataset_csv(make_blobs(2, 8, [(0, 0), (8, 8)], 0.5, seed=6, id="b"), data / "b.csv")
    out = tmp_path / "bench"
    args = ["bench", str(data), "--label-column", "-1", "--k-min", "2", "--k-max", "3",
            "--seed", "1", "--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "a_bad.csv" in err and "line 2" in err
    assert (out / "b" / "report.csv").exists()
    assert (out / "grid.csv").read_text().splitlines()[0] == "index,b"
    assert (out / "accuracy.csv").exists()
    os.remove(data / "b.csv")
    assert cli.main(args) == 2
    assert "accuracy aggregation skipped" in capsys.readouterr().err


def test_cli_bench_skips_a_repeated_dataset_id(tmp_path, capsys):
    def bench(directory, out):
        return cli.main(["bench", str(directory), "--label-column", "-1", "--k-min", "2",
                         "--k-max", "3", "--seed", "1", "--out", str(out)])

    data, alone = tmp_path / "data", tmp_path / "alone"
    data.mkdir()
    alone.mkdir()
    for directory in (data, alone):
        save_dataset_csv(make_blobs(2, 8, [(0, 0), (8, 8)], 0.5, seed=6), directory / "a.csv")
    save_dataset_csv(make_blobs(2, 8, [(0, 0), (8, 8)], 0.5, seed=7), data / "a.data")
    (data / "a.data").write_text((data / "a.data").read_text().replace(",", " "))
    assert bench(data, tmp_path / "both") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data / 'a.data'}: ") and str(data / "a.csv") in err
    assert (tmp_path / "both" / "grid.csv").read_text().splitlines()[0] == "index,a"
    # <out>/a holds the report of a.csv, the first file with that id
    assert bench(alone, tmp_path / "one") == 0
    for name in ("report.csv", "summary.txt"):
        assert (tmp_path / "both" / "a" / name).read_bytes() == (
            tmp_path / "one" / "a" / name
        ).read_bytes()


def test_variant_columns_and_boundary_mix():
    ds = _easy_dataset()
    config = build_run_config(
        seed=1, k_min=2, k_max=3, include_variants=True, boundary_mix_weight=0.25
    )
    report = evaluate_dataset(config, ds)
    assert "new3" in report.rankings
    row = report.rows[0]
    for col in ("ia_v1", "ia_v2", "ia_v3", "is_v1", "is_v2", "is_v3", "new3"):
        assert col in row.scores
    w = 0.25
    expected = (1 - w) * row.scores["new"] + w * row.scores["new_ib"]
    assert row.scores["new3"] == pytest.approx(expected, abs=1e-15)
    # each variant column is the standalone public function on the same profiles
    p = config.kdi_params
    for row, part in zip(report.rows, report.candidates):
        profiles = fit_profiles(ds, part, p, config.bw_spec())
        lm = cross_log_density(ds, profiles)
        expected = {
            "ia_v1": ambiguous_v1(ds, profiles, lm, p.pair_local),
            "ia_v2": ambiguous_v2(ds, profiles, lm, p.pair_local),
            "ia_v3": ambiguous_v3(ds, profiles, p.mc_samples, p.seed),
            "is_v1": similarity_v1(profiles, ds.n, p.min_cluster_size),
            "is_v2": similarity_v2(profiles, ds.n, p.min_cluster_size),
            "is_v3": similarity_v3(
                profiles, ds.n, center=p.s_v3_center, metric=p.s_v3_metric,
                normalize=p.s_v3_normalize,
            ),
        }
        for col, value in expected.items():
            assert row.scores[col] == value, (part.source, col)


def test_cli_variant_columns_follow_new_ib(tmp_path):
    data_path = tmp_path / "easy.csv"
    save_dataset_csv(_easy_dataset(), data_path)
    out = tmp_path / "o"
    assert cli.main(["evaluate", str(data_path), "--label-column", "-1", "--k-min", "2",
                     "--k-max", "2", "--seed", "1", "--variants", "--out", str(out)]) == 0
    with open(out / "report.csv", newline="") as fh:
        header = next(csv.reader(fh))
    start = header.index("new_ib")
    assert header[start:start + 8] == [
        "new_ib", "ia_v1", "ia_v2", "ia_v3", "is_v1", "is_v2", "is_v3", "ari"
    ]


def test_cli_rank_with_a_short_manifest_row_is_data_error(tmp_path, capsys):
    ds = _easy_dataset()
    data_path = tmp_path / "easy.csv"
    save_dataset_csv(ds, data_path)
    parts = tmp_path / "parts"
    parts.mkdir()
    np.savetxt(parts / "p.txt", ds.reference_labels, fmt="%d")
    (parts / "manifest.csv").write_text("file,source,k\np.txt,reference\n")
    args = ["rank", str(data_path), "--partitions", str(parts), "--seed", "1",
            "--out", str(tmp_path / "o")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("data error: not enough values to unpack")
    (parts / "manifest.csv").write_text("file,source,k\np.txt,reference,2\n")
    assert cli.main(args) == 0


def test_cli_exit_codes(tmp_path):
    assert cli.main(["evaluate"]) == 1  # usage: missing dataset argument
    assert cli.main(["evaluate", "nope.csv", "--seed", "1"]) == 2  # data: missing file
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert cli.main(["evaluate", str(bad), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    # no seed anywhere -> usage error
    ok = tmp_path / "ok.csv"
    save_dataset_csv(_easy_dataset(), ok)
    assert cli.main(["evaluate", str(ok)]) == 1
    # a non-finite value is a data error, not a usage error
    nan = tmp_path / "nan.csv"
    nan.write_text("0,0\n1,nan\n2,2\n")
    assert cli.main(["evaluate", str(nan), "--seed", "1", "--out", str(tmp_path / "o")]) == 2


def test_cli_evaluate_arff_nominal_class(tmp_path):
    path = tmp_path / "t.arff"
    path.write_text(
        "@relation t\n@attribute x numeric\n@attribute y numeric\n"
        "@attribute class {setosa,virginica}\n@data\n"
        "0.0,0.0,setosa\n0.5,0.4,setosa\n6.0,6.0,virginica\n6.5,6.2,virginica\n"
    )
    out = tmp_path / "o"
    rc = cli.main(["evaluate", str(path), "--k-min", "2", "--k-max", "2", "--seed", "1",
                   "--out", str(out)])
    assert rc == 0
    manifest = (out / "candidates" / "manifest.csv").read_text().splitlines()[1:]
    (fname,) = [row.split(",")[0] for row in manifest if "reference" in row.split(",")[1]]
    labels = np.loadtxt(out / "candidates" / fname, dtype=np.int64)
    np.testing.assert_array_equal(labels, [0, 0, 1, 1])


def test_cli_evaluates_a_csv_with_a_byte_order_mark(tmp_path):
    plain = tmp_path / "plain.csv"
    save_dataset_csv(_easy_dataset(), plain)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        out = tmp_path / path.stem
        args = ["evaluate", str(path), "--k-min", "2", "--k-max", "3", "--seed", "1",
                "--out", str(out)]
        assert cli.main(args) == 0
    assert (tmp_path / "plain" / "report.csv").read_bytes() == (
        tmp_path / "marked" / "report.csv"
    ).read_bytes()


def test_cli_rank_without_partitions_is_data_error(tmp_path):
    data_path = tmp_path / "easy.csv"
    save_dataset_csv(_easy_dataset(), data_path)
    empty = tmp_path / "parts"
    empty.mkdir()
    args = ["rank", str(data_path), "--partitions", str(empty), "--seed", "1",
            "--out", str(tmp_path / "o")]
    assert cli.main(args) == 2
    (empty / "bad.txt").write_text("0\nx\n")
    assert cli.main(args) == 2


def test_cli_error_taxonomy(tmp_path, capsys):
    unlabeled = tmp_path / "u.csv"
    unlabeled.write_text("0,0\n1,1\n2,2\n5,5\n6,6\n7,7\n")
    train = tmp_path / "train.txt"
    train.write_text("u.csv\n")
    out = str(tmp_path / "o")
    # an unlabeled training file is a fault in the data
    assert cli.main(["calibrate", str(tmp_path), "--train-list", str(train), "--seed", "1",
                     "--k-min", "2", "--k-max", "2", "--out", out]) == 2
    # so is a k range that the dataset cannot supply
    assert cli.main(["evaluate", str(unlabeled), "--seed", "1", "--k-min", "9", "--k-max", "9",
                     "--indices", "ch", "--out", out]) == 2
    # faults in the config file are usage errors
    nosection = tmp_path / "nosection.ini"
    nosection.write_text("seed = 1\n")
    capsys.readouterr()
    assert cli.main(["evaluate", str(unlabeled), "--config", str(nosection), "--out", out]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    bad_delta = tmp_path / "delta.ini"
    bad_delta.write_text("[kdi]\ndelta = 7\n")
    assert cli.main(["evaluate", str(unlabeled), "--seed", "1", "--config", str(bad_delta),
                     "--out", out]) == 1
    assert "usage error: delta must be in [0, 1]" in capsys.readouterr().err
    missing = str(tmp_path / "missing.ini")
    assert cli.main(["evaluate", str(unlabeled), "--seed", "1", "--config", missing,
                     "--out", out]) == 1
    # so are a negative seed or minimum cluster size, an unknown similarity_v3
    # center or metric (with or without --variants) and an empty generator or
    # index list
    for flags, text in (
        (["--seed", "-1"], ""),
        (["--seed", "1"], "[kdi]\nseed = -1\n"),
        ([], "[run]\nseed = -1\n"),
        (["--seed", "1"], "[kdi]\nmin_cluster_size = -3\n"),
        (["--seed", "1"], "[kdi]\ns_v3_center = mode\n"),
        (["--seed", "1", "--variants"], "[kdi]\ns_v3_center = mode\n"),
        (["--seed", "1"], "[kdi]\ns_v3_metric = cubed\n"),
        (["--seed", "1"], "[run]\ngenerators =\n"),
        (["--seed", "1"], "[run]\nindices =\n"),
    ):
        ini = tmp_path / "case.ini"
        ini.write_text(text)
        capsys.readouterr()
        assert cli.main(["evaluate", str(unlabeled), "--config", str(ini), "--out", out]
                        + flags) == 1, (flags, text)
        assert capsys.readouterr().err.startswith("usage error"), (flags, text)
    # a bad bandwidth grid is rejected when the config is built
    for grid in ("1.0, 0.5", "-1", "nan, 1.0", "0.5, nan", "1.0, inf"):
        bad_grid = tmp_path / "grid.ini"
        bad_grid.write_text(f"[bandwidth]\ngrid = {grid}\n")
        capsys.readouterr()
        assert cli.main(["evaluate", str(unlabeled), "--seed", "1", "--config", str(bad_grid),
                         "--out", out]) == 1
        assert capsys.readouterr().err.startswith("usage error"), grid
