"""Tests of the benchmark's own arithmetic: span self time, the tracer's
namespace wrapping, and seed-to-input determinism.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import sys
import types

import pytest

import inputs
import spans


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(4, 6), (0, 1)]) == 3


def test_self_time_subtracts_direct_children_only():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 3.0, 0, 0),
        spans.Span("leaf", 1.5, 2.0, 1, 0),
        spans.Span("b", 4.0, 6.0, 0, 0),
        spans.Span("a", 7.0, 8.0, 0, 0),
    ]
    assert spans.self_times(tree) == [5.0, 1.5, 0.5, 2.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["a"] == {"self_s": 2.5, "calls": 2}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


@pytest.fixture
def fake_package():
    """pkg.low.leaf, called by pkg.high.outer and bound in pkg.high as _leaf."""
    low = types.ModuleType("pkg.low")
    exec("def leaf(x):\n    return x + 1\n", low.__dict__)
    high = types.ModuleType("pkg.high")
    high.low = low
    high._leaf = low.leaf
    exec("def outer(x):\n    return low.leaf(x) + _leaf(x)\n", high.__dict__)
    pkg = types.ModuleType("pkg")
    names = {"pkg": pkg, "pkg.low": low, "pkg.high": high}
    sys.modules.update(names)
    yield low, high
    for name in names:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_nests(fake_package):
    low, high = fake_package
    original = low.leaf
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    tracer.install(low, "leaf", after=seen.append, package="pkg")
    tracer.install(high, "outer", package="pkg")
    assert high._leaf is low.leaf is not original
    tracer.op = 7
    assert high.outer(1) == 4
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("high.outer", None, 7), ("low.leaf", 0, 7), ("low.leaf", 0, 7)]
    assert seen == [2, 2]
    # clock ticks: outer 0..5, leaves 1..2 and 3..4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]
    tracer.uninstall()
    assert low.leaf is original and high._leaf is original


def test_inputs_are_a_function_of_the_seed():
    for workload in inputs.WORKLOADS:
        first = inputs.generate(workload, 11)
        assert first == inputs.generate(workload, 11)
        assert first != inputs.generate(workload, 12)
        assert json.loads(json.dumps(first)) == first


def test_certify_fixtures_are_consistent():
    spec = inputs.certify(3)
    names = [fx["name"] for fx in spec["fixtures"]]
    assert names[:4] == ["X^3-1", "X^5-1", "X^6-1", "X^7-1"]
    for fx in spec["fixtures"]:
        roots = [complex(re, im) for re, im in fx["roots"]]
        for row in fx["relations"]:
            assert abs(sum(a * x for a, x in zip(row, roots))) < 1e-9
        for alpha in fx["non_relations"]:
            assert abs(sum(a * x for a, x in zip(alpha, roots))) > 0.01
    septic = spec["fixtures"][names.index("seeded-7")]
    assert septic["relations"] == [[1] * 7] and septic["negation_pairs"] == []


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        inputs.generate("nope", 1)
