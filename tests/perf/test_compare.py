"""``perf/compare.py`` verdicts on canned result sets."""

from __future__ import annotations

import json

import compare


def _write_set(directory, workload, metric, unit, values, seed0=1):
    directory.mkdir(parents=True)
    for index, value in enumerate(values):
        result = [{
            "workload": workload,
            "seed": seed0 + index,
            "digest": f"d{seed0 + index}",
            "metrics": {metric: {"value": value, "unit": unit}},
        }]
        (directory / f"run-{index}.json").write_text(json.dumps(result))
    return directory


def _verdict(tmp_path, metric, unit, a_values, b_values):
    set_a = compare.load_set(
        _write_set(tmp_path / "a", "openloop_day", metric, unit, a_values)
    )
    set_b = compare.load_set(
        _write_set(tmp_path / "b", "openloop_day", metric, unit, b_values, 101)
    )
    return compare.compare(set_a, set_b)["end_to_end"]["openloop_day"][metric]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_same_distribution_is_within_bound(tmp_path):
    row = _verdict(tmp_path, "confirms_per_wall_s", "confirm/s", STEADY, STEADY)
    assert row["verdict"] == "within-bound"
    assert row["a"]["n"] == 10 and row["a"]["median"] == 100.0


def test_regression_beyond_the_bound_is_outside(tmp_path):
    slower = [value * 0.7 for value in STEADY]
    row = _verdict(tmp_path, "confirms_per_wall_s", "confirm/s", STEADY, slower)
    assert row["change"] < -row["bound"]
    assert row["verdict"] == "outside-bound"


def test_improvement_is_within_bound(tmp_path):
    faster = [value * 1.5 for value in STEADY]
    row = _verdict(tmp_path, "confirms_per_wall_s", "confirm/s", STEADY, faster)
    assert row["verdict"] == "within-bound"


def test_lower_is_better_direction(tmp_path):
    heavier = [value * 1.5 for value in STEADY]
    row = _verdict(tmp_path, "peak_rss_mb", "MB", STEADY, heavier)
    assert row["verdict"] == "outside-bound"
    lighter = [value * 0.5 for value in STEADY]
    assert _verdict(
        tmp_path / "x", "peak_rss_mb", "MB", STEADY, lighter
    )["verdict"] == "within-bound"


def test_wide_spread_is_outside_except_for_setup(tmp_path):
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 55.0, 145.0, 100.0, 100.0]
    row = _verdict(tmp_path, "confirms_per_wall_s", "confirm/s", noisy, noisy)
    assert row["a"]["spread"] > row["bound"]
    assert row["verdict"] == "outside-bound"
    setup = _verdict(tmp_path / "x", "setup_s", "s", noisy, noisy)
    assert setup["verdict"] == "within-bound"


def test_reference_digests_keep_the_reference_seeds():
    results = [
        {"workload": "openloop_day", "seed": seed, "digest": f"d{seed}"}
        for seed in (1, 7, 167)
    ]
    assert compare.reference_digests(results) == {
        "openloop_day": {"7": "d7", "167": "d167"}
    }
