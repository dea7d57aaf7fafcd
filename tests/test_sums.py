"""Sum families: grids, Kloosterman sums, condition sets, Weyl sums."""

import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import ultrashort.arith as arith
import ultrashort.cli as cli
import ultrashort.sums as sums
from ultrashort.arith import IntPoly, find_split_primes, hensel_roots, roots_mod_primes
from ultrashort.errors import (
    InvalidDescriptor,
    NotSplit,
    OutOfRangeParameter,
    VanishingValue,
    ZeroRoot,
)
from ultrashort.sums import (
    additive_sum_grid,
    hyper_kloosterman,
    kloosterman_table,
    make_condition_set,
    mult_char_sum_grid,
    multi_param_sum_samples,
    restricted_sum_values,
    trace_sum_grid,
    uniformity_metric,
    weyl_sum,
)


# ---------------------------------------------------------------------------
# additive grids


def test_additive_grid_single_root():
    grid = additive_sum_grid(IntPoly.parse("X-5"), 7)
    for a, v in zip(grid.params, grid.values):
        assert abs(v - cmath.exp(2j * cmath.pi * (5 * a % 7) / 7)) < 1e-12
        assert abs(abs(v) - 1.0) < 1e-12


def test_additive_grid_cube_roots():
    grid = additive_sum_grid(IntPoly.parse("X^3-1"), 7)
    assert abs(grid.values[0] - 3.0) < 1e-12
    expected = sum(cmath.exp(2j * cmath.pi * r / 7) for r in (1, 2, 4))
    assert abs(grid.values[1] - expected) < 1e-12
    assert grid.complete


@pytest.mark.parametrize("text,q", [("X^3+X+3", 30223), ("X^3+2X^2+3", 30113), ("X^5-1", 11)])
def test_parseval_exact_at_finite_level(text, q):
    g = IntPoly.parse(text)
    grid = additive_sum_grid(g, q)
    assert abs((np.abs(grid.values) ** 2).mean() - g.degree) < 1e-9 * g.degree


def test_additive_grid_prime_power():
    g = IntPoly.parse("X^2-2")
    grid = additive_sum_grid(g, 7, 2)
    assert len(grid.values) == 49
    expected = sum(cmath.exp(2j * cmath.pi * r / 49) for r in (10, 39))
    assert abs(grid.values[1] - expected) < 1e-12


def test_prime_power_grid_finds_the_mod_q_roots_once(monkeypatch):
    """A grid mod q^n finds the roots mod q in one batch and lifts those,
    giving hensel_roots' roots; the NotSplit check used to find them again."""
    g, q = IntPoly.parse("X^3+X+3"), 193
    want = list(hensel_roots(g, q, 2).roots)
    batches = []

    def spy(g, qs):
        batches.append(list(qs))
        return roots_mod_primes(g, qs)

    monkeypatch.setattr(sums, "roots_mod_primes", spy)
    monkeypatch.setattr(arith, "roots_mod_primes", spy)
    additive_sum_grid(g, q, 2)
    assert batches == [[q]]
    assert _roots(g, q, 2) == want


def test_split_roots_each_is_the_one_root_source():
    """roots_mod_primes has one call site in sums, stats and cli together:
    _split_roots_each, which every sum family, Weyl check and command reads."""
    import ast

    calls = []
    for name in ("sums", "stats", "cli"):
        path = os.path.join(os.path.dirname(sums.__file__), f"{name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                calls += [(name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "roots_mod_primes"]
    assert calls == [("sums", "_split_roots_each")]


def test_lifted_roots_are_ascending_mod_q_power_not_in_mod_q_order():
    """The roots mod q^n are sorted again after the lift: X^3+X+3 at q = 71
    lifts [4, 20, 47] to [517, 1538, 2986], which are [20, 47, 4] mod 71."""
    g = IntPoly.parse("X^3+X+3")
    assert _roots(g, 71) == [4, 20, 47]
    assert _roots(g, 71, 2) == [517, 1538, 2986]
    for q in find_split_primes(g, 2, 2000)[:28]:
        lifted = _roots(g, q, 2)
        assert lifted == sorted(lifted)
        assert sorted(r % q for r in lifted) == _roots(g, q)


def test_additive_grid_threads_deterministic():
    g = IntPoly.parse("X^3+X+3")
    a = additive_sum_grid(g, 30223, threads=1)
    b = additive_sum_grid(g, 30223, threads=4)
    assert np.array_equal(a.values, b.values)


U = 2.0**-53


def _within_proven_bound(values, residue_sets, modulus, d):
    """Compare a grid with the direct per-point sum of d exponentials.

    The grid is within d*(d + 43)*U of the exact sum (sums module docstring);
    the direct sum is within d*(d + 20)*U of it: (6*pi + 2)*U per exponential
    and d - 1 additions, with one exponential and no product per term.
    """
    want = sum(sums._exp_of_residues(ks % modulus, modulus) for ks in residue_sets)
    assert values.shape == want.shape
    assert np.abs(values - want).max() <= d * (d + 43) * U + d * (d + 20) * U


def _roots(g, q, n=1):
    """The roots of g mod q^n in the order every sum family reads them."""
    return next(sums._split_roots_each(g, [q], n))[1]


def _additive(text, q, n):
    g = IntPoly.parse(text)
    a = np.arange(q**n, dtype=np.int64)
    ws = _roots(g, q, n)
    return additive_sum_grid(g, q, n).values, [a * w for w in ws], q**n, g.degree


def _mult(text, q):
    g = IntPoly.parse(text)
    gen = sums.multiplicative_generator(q)
    roots = _roots(g, q)
    logs = [next(k for k in range(q - 1) if pow(gen, k, q) == r) for r in roots]
    t = np.arange(q - 1, dtype=np.int64)
    return mult_char_sum_grid(g, q).values, [t * s for s in logs], q - 1, g.degree


def _multi(text, q, exponents):
    g = IntPoly.parse(text)
    tuples = np.array(list(itertools.product(range(q), repeat=len(exponents))), dtype=np.int64)
    powers = [[pow(r, m, q) for m in exponents] for r in _roots(g, q)]
    values = multi_param_sum_samples(g, q, exponents, 0, 0, full_grid=True)
    return values, [tuples @ np.array(pw) for pw in powers], q, g.degree


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _additive("X^2-2", 7, 2), id="additive-49-square"),
        pytest.param(lambda: _additive("X^2+1", 101, 1), id="additive-101-above-square"),
        pytest.param(lambda: _additive("X^2+3X+2", 2, 3), id="additive-8-below-square"),
        pytest.param(lambda: _additive("X^3+X+3", 30223, 1), id="additive-prime-30223"),
        pytest.param(lambda: _mult("X+1", 2), id="mult-q2-size1"),
        pytest.param(lambda: _mult("X^2-1", 3), id="mult-q3-size2"),
        pytest.param(lambda: _multi("X^3-1", 13, [2]), id="multi-k1"),
        pytest.param(lambda: _multi("X^3-1", 109, [1, -1]), id="multi-k2"),
        pytest.param(lambda: _multi("X^3-1", 13, [1, 2, -1]), id="multi-k3"),
    ],
)
def test_complete_grids_match_direct_sums_within_the_proven_bound(case):
    _within_proven_bound(*case())


@pytest.mark.parametrize("threads", [0, -3])
def test_additive_grid_rejects_fewer_than_one_thread(threads):
    with pytest.raises(OutOfRangeParameter):
        additive_sum_grid(IntPoly.parse("X^3+X+3"), 30223, threads=threads)


def test_additive_grid_not_split():
    with pytest.raises(NotSplit):
        additive_sum_grid(IntPoly.parse("X^3-1"), 5)


def _params_by_mask(grid):
    """The parameter array as the grids used to store it."""
    mask = np.ones(grid.ambient_size, dtype=bool)
    mask[list(grid.excluded)] = False
    return np.nonzero(mask)[0].astype(np.int64)


@pytest.mark.parametrize(
    "build",
    [
        lambda: additive_sum_grid(IntPoly.parse("X^3-1"), 7, 2),
        lambda: mult_char_sum_grid(IntPoly.parse("X^3-1"), 13),
        lambda: trace_sum_grid(IntPoly.parse("X^3-9X-1"), 1093, mode="dilate"),
        lambda: trace_sum_grid(IntPoly.parse("X^3-9X-1"), 1093, mode="translate"),
    ],
    ids=["additive", "multiplicative", "dilate", "translate"],
)
def test_grid_params_are_the_ambient_space_minus_excluded(build):
    grid = build()
    params = grid.params
    assert params.dtype == np.int64
    assert np.array_equal(params, _params_by_mask(grid))
    assert len(params) == len(grid.values)
    assert grid.complete == (len(params) == grid.ambient_size)


def test_grid_csv_and_json(tmp_path):
    grid = additive_sum_grid(IntPoly.parse("X^3-1"), 7)
    path = tmp_path / "grid.csv"
    cli._write_grid(grid, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,re,im"
    assert len(lines) == 8
    meta = grid.to_json_dict()
    assert meta["family"] == "additive" and meta["q"] == 7 and meta["excluded"] == []
    assert json.loads((tmp_path / "grid.json").read_text()) == meta


def test_sums_does_not_import_limitlaw():
    """sums draws its samples from arith.philox_generator: a fresh
    interpreter that samples never loads limitlaw."""
    src = os.path.dirname(os.path.dirname(sums.__file__))
    code = (
        "import sys; from ultrashort import arith, sums; "
        "g = arith.IntPoly.parse('X^3+X+3'); "
        "assert len(sums.multi_param_sum_samples(g, 30223, [1, 2], 50, 7)) == 50; "
        "print('ultrashort.limitlaw' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# multi-parameter samples


def test_multi_param_full_grid_moments_are_stationary():
    # two-parameter family over the (a, b) grid at q = 109: full-grid mixed
    # moments equal the exact joint-relation counts
    from ultrashort.limitlaw import exact_mixed_moment
    from ultrashort.relations import joint_power_relations

    g = IntPoly.parse("X^3-1")
    vals = multi_param_sum_samples(g, 109, [1, -1], 0, 0, full_grid=True)
    assert len(vals) == 109**2
    assert abs(vals[0] - 3.0) < 1e-12  # (a, b) = (0, 0)
    joint = joint_power_relations(g, (1, -1))
    for m, n, want in [(1, 1, 3), (3, 0, 6), (2, 0, 0), (2, 2, 15)]:
        emp = (vals**m * np.conj(vals) ** n).mean()
        assert abs(emp - exact_mixed_moment(joint, m, n)) < 1e-9
        assert exact_mixed_moment(joint, m, n) == want


def test_multi_param_sampling_deterministic():
    g = IntPoly.parse("X^3-1")
    a = multi_param_sum_samples(g, 109, [1, -1], 500, seed=11)
    b = multi_param_sum_samples(g, 109, [1, -1], 500, seed=11)
    c = multi_param_sum_samples(g, 109, [1, -1], 500, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 3 + 1e-9)


def test_multi_param_single_root_modulus_one():
    vals = multi_param_sum_samples(IntPoly.parse("X-5"), 7, [1], 5, seed=1)
    assert np.allclose(np.abs(vals), 1.0)


# ---------------------------------------------------------------------------
# multiplicative character grids


def test_mult_char_degenerate_counts():
    grid = mult_char_sum_grid(IntPoly.parse("X^3-1"), 13)
    vals = grid.values
    assert len(vals) == 12
    assert int(np.sum(np.abs(vals - 3) < 1e-9)) == 4
    assert int(np.sum(np.abs(vals) < 1e-9)) == 8


def test_mult_char_trivial_character_counts_roots():
    grid = mult_char_sum_grid(IntPoly.parse("X^3-1"), 7)
    assert abs(grid.values[0] - 3.0) < 1e-12


def test_mult_char_single_root():
    grid = mult_char_sum_grid(IntPoly.parse("X-5"), 7)
    assert np.allclose(np.abs(grid.values), 1.0)
    # values[t] = chi_t(5): with generator 3 and 5 = 3^5 mod 7
    assert abs(grid.values[1] - cmath.exp(2j * cmath.pi * 5 / 6)) < 1e-12


def test_mult_char_logs_match_brute_force():
    g = IntPoly.parse("X^3+X+3")
    _within_proven_bound(*_mult("X^3+X+3", find_split_primes(g, 100, 400)[0]))


def test_mult_char_grid_rejects_q_above_grid_cap():
    # the first prime above 2^26; the check comes before any other work
    with pytest.raises(OutOfRangeParameter):
        mult_char_sum_grid(IntPoly.parse("X^2+1"), 67108879)


def test_mult_char_vanishing_value():
    with pytest.raises(VanishingValue):
        mult_char_sum_grid(IntPoly.parse("X^2-X"), 11)  # root 0 mod 11


# ---------------------------------------------------------------------------
# Kloosterman sums


def test_kl2_oracle_value():
    # direct evaluation: (2 + 2cos(4 pi/5)) / sqrt 5
    assert abs(
        hyper_kloosterman(2, 1, 5) - (2 + 2 * math.cos(4 * math.pi / 5)) / math.sqrt(5)
    ) < 1e-12


def test_kl2_real_and_weil_bound():
    table = kloosterman_table(2, 197)
    assert (table.imag == 0).all()
    assert np.abs(table[1:]).max() <= 2.0 + 1e-9


def test_kl_table_matches_single_values():
    table = kloosterman_table(2, 101)
    for a in (1, 17, 50, 100):
        assert abs(table[a] - hyper_kloosterman(2, a, 101)) < 1e-10
    table3 = kloosterman_table(3, 101)
    for a in (1, 17, 50):
        assert abs(table3[a] - hyper_kloosterman(3, a, 101)) < 1e-10


def _kl_brute_force(r, a, q):
    """Kl_r(a; q) summed straight from the definition."""
    total = 0j
    for xs in itertools.product(range(1, q), repeat=r - 1):
        total += cmath.exp(2j * cmath.pi * ((sum(xs) + a * pow(math.prod(xs), -1, q)) % q) / q)
    return total / q ** ((r - 1) / 2)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_kl_table_matches_brute_force_oracle(r, q):
    table = kloosterman_table(r, q)
    for a in range(1, q):
        want = _kl_brute_force(r, a, q)
        assert abs(table[a] - want) < 1e-12
        assert abs(hyper_kloosterman(r, a, q) - want) < 1e-12


def test_kl_table_is_read_only():
    table = kloosterman_table(2, 101)
    before = complex(table[5])
    with pytest.raises(ValueError):
        table[5] = 99
    assert kloosterman_table(2, 101)[5] == before
    # single r = 2 values are a direct sum, not a table read
    assert abs(hyper_kloosterman(2, 5, 101) - before) < 1e-12


def _kl2_fsum(a, q):
    """Kl_2(a; q) from the definition, summed exactly rounded by math.fsum."""
    terms = (math.cos(2 * math.pi * ((x + a * pow(x, -1, q)) % q) / q) for x in range(1, q))
    return math.fsum(terms) / math.sqrt(q)


# 10007 - 1 = 2 * 5003 has a large prime factor; 10369 - 1 = 2^7 * 3^4 is smooth
@pytest.mark.parametrize("q", [10007, 10369])
def test_kl2_single_value_matches_fsum_oracle(q):
    for a in (1, 2, 5003, q - 1):
        value = hyper_kloosterman(2, a, q)
        assert value.imag == 0.0
        assert abs(value.real - _kl2_fsum(a, q)) < 1e-12


def test_kl2_single_value_does_not_depend_on_the_memo(monkeypatch):
    q, a = 10007, 4321
    monkeypatch.setattr(sums, "_KL_TABLES", {})
    first = hyper_kloosterman(2, a, q)
    assert sums._KL_TABLES == {}
    kloosterman_table(2, q)
    assert hyper_kloosterman(2, a, q) == first
    sums._KL_TABLES.clear()
    assert hyper_kloosterman(2, a, q) == first


def test_kl2_single_value_builds_no_table_and_calls_no_fft(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("np.fft called")

    monkeypatch.setattr(np.fft, "fft", spy)
    monkeypatch.setattr(np.fft, "ifft", spy)
    monkeypatch.setattr(sums, "_KL_TABLES", {})
    for q in (101, 10007):
        hyper_kloosterman(2, 17, q)
    assert sums._KL_TABLES == {}


def test_kl_table_high_rank_is_finite_and_obeys_parseval():
    # the unnormalised r-th power of the spectrum overflows once sqrt(q)^r > 1.8e308
    q, r = 8089, 200
    table = kloosterman_table(r, q)
    assert np.isfinite(table).all()
    assert np.abs(table[1:]).max() <= r
    # sum over a != 0 of |S_r(a)|^2 = ((q - 2) q^r + 1) / (q - 1), S_r = q^((r-1)/2) Kl_r
    want = Fraction((q - 2) * q**r + 1, (q - 1) * q ** (r - 1))
    assert abs(math.fsum(np.abs(table[1:]) ** 2) - float(want)) < 1e-12 * float(want)


def test_kl_table_rejects_q_above_grid_cap():
    q = 67108879  # the first prime above 2^26
    for call in (
        lambda: kloosterman_table(2, q),
        lambda: hyper_kloosterman(2, 1, q),
        lambda: trace_sum_grid(IntPoly.parse("X-1"), q),
    ):
        with pytest.raises(OutOfRangeParameter):
            call()


def test_kl3_conjugation_symmetry():
    for q in (53, 101, 197):
        for a in (1, 5, 29):
            lhs = hyper_kloosterman(3, q - a, q)
            rhs = hyper_kloosterman(3, a, q)
            assert abs(lhs - rhs.conjugate()) < 1e-9


def test_kl4_via_table_is_real():
    table = kloosterman_table(4, 53)
    assert (table.imag == 0).all()  # even rank: symplectic, real


def test_hyper_kloosterman_range_checks():
    with pytest.raises(OutOfRangeParameter):
        hyper_kloosterman(2, 0, 7)
    with pytest.raises(OutOfRangeParameter):
        hyper_kloosterman(1, 1, 7)
    with pytest.raises(OutOfRangeParameter):
        hyper_kloosterman(2, 1, 8)


# ---------------------------------------------------------------------------
# trace-sum grids


def test_trace_grid_single_root_is_kl2():
    q = 101
    grid = trace_sum_grid(IntPoly.parse("X-1"), q, r=2, mode="dilate")
    table = kloosterman_table(2, q)
    assert grid.excluded == (0,)
    assert np.allclose(grid.values, table[grid.params])
    assert (grid.values.imag == 0).all()


def test_trace_grid_weil_bound_and_reality():
    g = IntPoly.parse("X^3-9X-1")
    q = find_split_primes(g, 1000, 1200)[0]
    grid = trace_sum_grid(g, q, r=2, mode="dilate")
    assert np.abs(grid.values).max() <= 2 * g.degree + 1e-9
    assert (grid.values.imag == 0).all()


def test_trace_grid_translate_excludes_negated_roots():
    g = IntPoly.parse("X^3-9X-1")
    q = find_split_primes(g, 1000, 1200)[0]
    grid = trace_sum_grid(g, q, r=2, mode="translate")
    from ultrashort.arith import roots_mod_prime

    roots = roots_mod_prime(g, q).roots
    assert grid.excluded == tuple(sorted((-r) % q for r in roots))
    assert len(grid.params) == q - 3


def test_trace_grid_zero_root_rejected():
    with pytest.raises(ZeroRoot):
        trace_sum_grid(IntPoly.parse("X^2-X"), 11, r=2, mode="dilate")


# ---------------------------------------------------------------------------
# condition sets, Weyl sums, uniformity


def test_condition_set_examples():
    assert list(make_condition_set(7, 1, "interval:0.5").members) == [0, 1, 2, 3]
    assert list(make_condition_set(7, 1, "image:X^2").members) == [0, 1, 2, 4]
    assert list(make_condition_set(7, 1, "subgroup:3").members) == [1, 2, 4]
    assert len(make_condition_set(7, 1, "full").members) == 7


def test_condition_set_invalid_descriptors():
    with pytest.raises(InvalidDescriptor):
        make_condition_set(7, 1, "subgroup:4")  # 4 does not divide 6
    with pytest.raises(InvalidDescriptor):
        make_condition_set(7, 1, "interval:1.5")
    with pytest.raises(InvalidDescriptor):
        make_condition_set(7, 2, "subgroup:3")
    with pytest.raises(InvalidDescriptor):
        make_condition_set(7, 1, "image:2X^2")  # not monic
    with pytest.raises(InvalidDescriptor):
        make_condition_set(7, 1, "blah")


@pytest.mark.parametrize(
    "descriptor",
    ["interval:abc", "subgroup:x", "image:X^^2", "image:X^-1+1", "image:", ("interval", "half")],
)
def test_condition_set_malformed_arguments(descriptor):
    with pytest.raises(InvalidDescriptor, match="descriptor"):
        make_condition_set(7, 1, descriptor)


def test_weyl_sum_full_is_exact():
    g = IntPoly.parse("X^5-1")
    full = make_condition_set(11, 1, "full")
    assert weyl_sum(g, 11, 1, [1, 1, 1, 1, 1], full) == 1
    assert weyl_sum(g, 11, 1, [1, 0, 0, 0, 0], full) == 0


def test_weyl_sum_rejects_a_set_for_another_modulus():
    g = IntPoly.parse("X^2+1")
    with pytest.raises(OutOfRangeParameter):
        weyl_sum(g, 13, 1, [1, 0], make_condition_set(5, 1, "full"))
    with pytest.raises(OutOfRangeParameter):
        weyl_sum(g, 13, 2, [1, 0], make_condition_set(13, 1, "interval:0.5"))


def test_restricted_sum_values_rejects_a_set_for_another_modulus():
    g = IntPoly.parse("X^2+1")
    with pytest.raises(OutOfRangeParameter):
        restricted_sum_values(g, 13, 1, make_condition_set(5, 1, "full"))
    with pytest.raises(OutOfRangeParameter):
        restricted_sum_values(g, 13, 2, make_condition_set(13, 1, "image:X^2"))


def test_weyl_sum_interval_riemann_value():
    # alpha with gamma(alpha) = -1: modulus ~ twice |integral of e(-t) on [0,1/2]|
    g = IntPoly.parse("X^3+X^2+2X+1")
    q = find_split_primes(g, 2000, 3000)[0]
    half = make_condition_set(q, 1, "interval:0.5")
    w = weyl_sum(g, q, 1, [1, 1, 1], half)
    assert abs(abs(w) - 2 / math.pi) < 0.02


def test_uniformity_metric_examples():
    assert uniformity_metric(make_condition_set(7, 1, "full")) < 1e-12
    m = uniformity_metric(make_condition_set(10007, 1, "interval:0.5"))
    assert abs(m - 2 / math.pi) < 0.01
    m = uniformity_metric(make_condition_set(10007, 1, "image:X^2"))
    assert m <= 5 / math.sqrt(10007)


def test_uniformity_direct_and_fft_routes_agree():
    # the FFT route of uniformity_metric against the defining sum, term by term
    q = 1009
    cubes = make_condition_set(q, 1, "image:X^3")
    a = np.asarray(cubes.members)
    want = max(
        abs(np.exp(2j * np.pi * ((a * h) % q) / q).sum()) for h in range(1, q)
    ) / len(a)
    assert abs(uniformity_metric(cubes) - want) < 1e-9


def test_param_space_cap():
    with pytest.raises(OutOfRangeParameter):
        make_condition_set(104729, 2, "full")  # ~1.1e10 > 2^26
