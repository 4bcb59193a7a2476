"""Tests of the benchmark's own machinery (op lists, span arithmetic, compare rule)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    assert make_ops(workload, 3) == make_ops(workload, 3)
    assert make_ops(workload, 3) != make_ops(workload, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_supports_a_p90(workload):
    # p90 needs at least ten ops beyond it
    ops = make_ops(workload, 0)
    assert len(ops) >= 100
    assert len(ops) - (run.percentile(range(len(ops)), 0.9) + 1) >= 10


def test_op_shapes_do_not_depend_on_the_seed():
    def shape(op):
        return op["label"], op["expect"]

    for workload in WORKLOADS:
        assert (sorted(map(shape, make_ops(workload, 1)))
                == sorted(map(shape, make_ops(workload, 2))))


def test_past_cap_share_of_exact_oracles():
    ops = make_ops("exact_oracles", 5)
    share = sum(op["expect"] == "cap" for op in ops) / len(ops)
    assert 0.08 <= share <= 0.12


def test_self_times_on_a_nested_span_tree():
    # root [0, 100] > a [10, 40] > b [15, 25];  root > c [50, 90];  a > c [30, 35]
    names = ["root", "a", "b", "c", "c"]
    starts = [0, 10, 15, 50, 30]
    ends = [100, 40, 25, 90, 35]
    parents = [-1, 0, 1, 0, 1]
    agg = spans.self_times(names, starts, ends, parents)
    assert agg["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert agg["a"] == {"calls": 1, "total_ns": 30, "self_ns": 15}
    assert agg["b"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert agg["c"] == {"calls": 2, "total_ns": 45, "self_ns": 45}
    assert sum(a["self_ns"] for a in agg.values()) == 100


def test_self_times_divide_each_span_by_its_scale():
    # root [0, 100] > a [10, 40]; the op ran on a host at half speed
    agg = spans.self_times(["root", "a"], [0, 10], [100, 40], [-1, 0], scale=[2.0, 2.0])
    assert agg["root"]["self_ns"] == 35 and agg["a"]["self_ns"] == 15
    assert agg["root"]["total_ns"] == 50


def test_op_factors_follow_the_slices_around_each_op():
    nominal = pace.REF_NOMINAL_MS
    refs = [nominal] * 12 + [2 * nominal] * 13   # the host halves its speed mid-pass
    factors = pace.op_factors(refs)
    assert len(factors) == len(refs) - 1
    assert factors[0] == 1.0 and factors[-1] == 2.0
    assert factors == sorted(factors)


def test_extra_children_counts_retries():
    names = ["solve", "scan", "scan", "solve", "scan", "scan", "scan"]
    parents = [-1, 0, 0, -1, 3, 3, 4]   # the last scan is a grandchild
    assert spans.extra_children(names, parents, "solve", "scan") == 2


def _sostree_bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "sostree" or name.startswith("sostree.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_rebinds_and_restores_every_name():
    import numpy as np

    from sostree import boundary, cli, nonti, ti  # noqa: F401  (loads every module)

    before = _sostree_bindings()
    methods = {(c, m): c.__dict__[m] for c, m in
               [(boundary.BoundaryLawField, "to_json_dict"), (nonti.NonTiField, "to_json_dict")]}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ti.law_map is boundary.law_map is not before[("sostree.boundary", "law_map")]
        tracer.active = True
        root = tracer.begin_op(0)
        ti.solve_symmetric_roots(ti.ModelParams(k=2, m=2, J=-1.0, beta=2.0))
        ti.law_map(np.zeros((3, 2)), 2, 0.5)
        tracer.close(root)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert _sostree_bindings() == before
    assert all(c.__dict__[m] is f for (c, m), f in methods.items())
    agg = tracer.aggregate()
    assert agg["spans"]["boundary.law_map"]["calls"] == 1
    assert agg["counts"]["boundary.law_map.rows"] == 3
    assert agg["spans"]["roots.find_roots"]["calls"] >= 1
    assert agg["counts"]["roots.bisect.calls"] >= 1
    total = sum(a["self_ns"] for a in agg["spans"].values())
    assert total == tracer.ends[root] - tracer.starts[root]


@pytest.mark.parametrize("base, change, better, expected", [
    ([10.0] * 5 + [10.1] * 5, [9.0] * 10, "lower", "improved"),
    ([10.0] * 5 + [10.1] * 5, [12.0] * 10, "lower", "regressed"),
    ([10.0] * 5 + [10.1] * 5, [10.2] * 10, "lower", "unchanged"),
    ([5.0, 10.0, 15.0, 20.0, 8.0, 12.0, 6.0, 18.0, 9.0, 14.0], [12.0] * 10, "lower",
     "unresolved"),
    ([1.0] * 10, [0.8] * 10, "higher", "regressed"),
    ([0.9] * 10, [1.0] * 10, "higher", "improved"),
])
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, 0.1, better)[0] == expected


def test_wide_spread_is_not_unresolved_when_every_change_run_is_better():
    base = [20.0, 21.0, 40.0, 60.0, 80.0]
    change = [18.0, 19.0, 19.5, 19.8, 19.9]
    # every pair won, but the medians differ by less than the base's IQR
    assert compare.verdict(base, change, 0.1, "lower") == ("unchanged", 1.0)
