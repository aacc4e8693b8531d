import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(values):
    """Raw runs of one side: seed -> {metric: value}."""
    return [{"seed": seed, "result": {"metrics": {m: {"value": v} for m, v in metrics.items()}}}
            for seed, metrics in values.items()]


def test_seed_list_expands_ranges_and_singles():
    assert bench_pairs.seed_list("16001-16003,16010") == [16001, 16002, 16003, 16010]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


def test_quartiles_of_four_values_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_compare_counts_pairs_by_seed():
    parent = runs({1: {"fast": 10.0, "slow": 1.0}, 2: {"fast": 11.0, "slow": 1.0},
                   3: {"fast": 12.0, "slow": 1.0}, 4: {"fast": 13.0, "slow": 1.0}})
    # seed 9 has no parent run and is left out of every pair
    change = runs({4: {"fast": 14.0, "slow": 1.5}, 1: {"fast": 9.0, "slow": 1.0},
                   2: {"fast": 11.0, "slow": 1.2}, 3: {"fast": 11.0, "slow": 1.1},
                   9: {"fast": 0.0, "slow": 0.0}})
    out = bench_pairs.compare(parent, change)
    fast, slow = out["fast"], out["slow"]
    assert (fast["pairs"], fast["change_lower"], fast["ties"]) == (4, 2, 1)
    assert fast["median_change_frac"] == pytest.approx(11.0 / 11.5 - 1.0)
    assert fast["median_change_frac"] < 0 < fast["median_gap"]
    assert fast["parent_iqr"] == pytest.approx(1.5)
    assert (slow["pairs"], slow["change_lower"], slow["ties"]) == (4, 0, 1)
    assert slow["median_change_frac"] > 0 > slow["median_gap"]
