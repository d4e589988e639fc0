"""Comparator verdicts on synthetic samples."""

from compare import compare, verdict

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]


def _pairs(parent, change):
    return list(zip(parent, change))


def test_gain_needs_nine_in_ten_pairs_and_a_gap_beyond_the_spread():
    change = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, change, _pairs(PARENT, change), "higher", 0.1) == "gain"
    # Lower-is-better metric, same samples: a 20% rise is a regression.
    assert verdict(PARENT, change, _pairs(PARENT, change), "lower", 0.1) == "regression"


def test_eight_of_ten_pairs_is_not_a_gain():
    change = [p * 1.2 for p in PARENT[:8]] + [p * 0.99 for p in PARENT[8:]]
    assert verdict(PARENT, change, _pairs(PARENT, change), "higher", 0.1) == "no regression"


def test_small_gap_is_not_a_gain_even_when_every_pair_wins():
    change = [p + 0.01 for p in PARENT]
    assert verdict(PARENT, change, _pairs(PARENT, change), "higher", 0.1) == "no regression"


def test_regression_beyond_bound_and_tolerated_within_it():
    worse = [p * 0.85 for p in PARENT]
    assert verdict(PARENT, worse, _pairs(PARENT, worse), "higher", 0.1) == "regression"
    slightly = [p * 0.95 for p in PARENT]
    assert verdict(PARENT, slightly, _pairs(PARENT, slightly), "higher", 0.1) == "no regression"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    same = noisy[::-1]
    assert verdict(noisy, same, _pairs(noisy, same), "higher", 0.1) == "unresolved"
    far = [v + 20.0 for v in noisy]
    assert verdict(noisy, far, _pairs(noisy, far), "higher", 0.1) == "gain"


def test_deterministic_metric_ties_everywhere():
    values = [1e6, 1.1e6, 0.9e6]
    assert verdict(values, values, _pairs(values, values), "lower", 0.05) == "no regression"


def test_table_has_one_row_per_workload_and_metric():
    spec = {"end_to_end": [{"name": "rounds_per_s", "unit": "1/s", "better": "higher",
                            "bound": 0.1}]}
    parent = {"w1": {s: {"rounds_per_s": v} for s, v in enumerate(PARENT)},
              "w2": {s: {"rounds_per_s": v} for s, v in enumerate(PARENT)}}
    change = {"w1": {s: {"rounds_per_s": v * 0.5} for s, v in enumerate(PARENT)},
              "w2": {s: {"rounds_per_s": v} for s, v in enumerate(PARENT)}}
    rows = compare(parent, change, spec)
    assert len(rows) == 3
    assert rows[1].startswith("w1") and rows[1].endswith("regression")
    assert rows[2].startswith("w2") and rows[2].endswith("no regression")
    assert "0/10/10" in rows[2]
