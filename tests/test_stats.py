"""Statistical instruments: exact moment/stationarity checks, KS, binned L1,
conditioning experiments."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ultrashort import sums
from ultrashort.arith import IntPoly, find_split_primes, roots_mod_primes
from ultrashort.errors import NonPrimeModulus, NotSplit, OutOfRangeParameter, RamifiedPrime
from ultrashort.limitlaw import exact_mixed_moment, philox_generator
from ultrashort.relations import RelationModule, additive_relations
from ultrashort.stats import (
    binned_l1_2d,
    conditioning_experiment,
    empirical_mixed_moment,
    ks_distance,
    moment_table,
    stationarity_report,
)
from ultrashort.sums import (
    additive_sum_grid,
    make_condition_set,
    restricted_sum_values,
    weyl_sum,
)


def test_empirical_moment_is_integer_times_q_on_full_grids():
    g = IntPoly.parse("X^3+X+3")
    q = find_split_primes(g, 1000, 2000)[0]
    grid = additive_sum_grid(g, q)
    for m in range(4):
        for n in range(4 - m):
            scaled = q * empirical_mixed_moment(grid, m, n)
            assert abs(scaled - round(scaled)) < 1e-4


def test_empirical_moments_match_exact_oracle():
    g = IntPoly.parse("X^3+X+3")
    module = additive_relations(g)
    q = find_split_primes(g, 5000, 9000)[0]
    grid = additive_sum_grid(g, q)
    table = moment_table(grid, 4)
    for (m, n), emp in table.items():
        assert abs(emp - exact_mixed_moment(module, m, n)) < 1e-3, (m, n)


@pytest.mark.parametrize("max_order", range(7))
def test_moment_table_equals_each_empirical_moment(max_order):
    g = IntPoly.parse("X^3+X+3")
    grid = additive_sum_grid(g, find_split_primes(g, 5000, 9000)[0])
    assert grid.complete
    table = moment_table(grid, max_order)
    keys = [(m, n) for m in range(max_order + 1) for n in range(max_order + 1 - m)]
    assert list(table) == keys
    for (m, n), value in table.items():
        assert value == empirical_mixed_moment(grid, m, n), (m, n)


def test_moment_table_rejects_negative_order():
    g = IntPoly.parse("X^3+X+3")
    grid = additive_sum_grid(g, find_split_primes(g, 5000, 9000)[0])
    with pytest.raises(OutOfRangeParameter):
        moment_table(grid, -1)


def test_empirical_moment_rejects_negative_orders():
    g = IntPoly.parse("X^3+X+3")
    grid = additive_sum_grid(g, find_split_primes(g, 1000, 2000)[0])
    for m, n in ((-1, 0), (0, -1), (2, -3)):
        with pytest.raises(OutOfRangeParameter):
            empirical_mixed_moment(grid, m, n)


def _moment_bound(d, k, size):
    """The moment_table docstring's bound on |entry - exact mean| for d roots,
    order k = m + n and a complete grid of `size` values."""
    u = 2.0**-53
    eps = d * (d + 43) * u
    big = d + eps
    h = 50 + math.ceil(math.log2(size))
    rounding = (1 + math.sqrt(5) * u) ** k * (1 + h * u / (1 - h * u)) * (1 + u) - 1
    return k * eps * big ** (k - 1) + rounding * big**k


def test_blocked_moments_within_proven_bound(monkeypatch):
    """On a complete grid of about 80 blocks of 64 values, every entry is
    within the proven bound of exact_mixed_moment, and moment_table equals
    empirical_mixed_moment bit for bit."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    g = IntPoly.parse("X^3+X+3")
    module = additive_relations(g)
    grid = additive_sum_grid(g, find_split_primes(g, 5000, 9000)[0])
    assert grid.complete and len(grid.values) % 64
    table = moment_table(grid, 6)
    for (m, n), value in table.items():
        assert value == empirical_mixed_moment(grid, m, n), (m, n)
        if m + n <= 4:
            bound = _moment_bound(3, m + n, len(grid.values))
            assert abs(value - exact_mixed_moment(module, m, n)) <= bound, (m, n)
    assert table[0, 0] == 1.0


def test_moment_table_holds_no_full_size_temporary():
    """The traced peak of moment_table(grid, 4) on a grid of about 2^18
    values stays below one grid-sized complex array (4 MiB); the unblocked
    table peaked at 36.0 MiB, the blocked kernel at 1.5 MiB."""
    g = IntPoly.parse("X^3+X+3")
    grid = additive_sum_grid(g, find_split_primes(g, 1 << 18, (1 << 18) + 3000)[0])
    tracemalloc.start()
    try:
        moment_table(grid, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes


def test_stationarity_entries_equal_full_set_weyl_sums():
    g = IntPoly.parse("X^5-1")
    alphas = [[1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [2, -1, 0, 3, 1], [0, 0, 0, 0, 0]]
    primes = [11, 31, 41, 61]
    rep = stationarity_report(g, primes, alphas)
    assert len(rep["entries"]) == len(primes) * len(alphas)
    for entry in rep["entries"]:
        q = entry["q"]
        want = weyl_sum(g, q, 1, entry["alpha"], make_condition_set(q, 1, "full"))
        assert entry["weyl"] == int(want.real) and want.imag == 0


def test_stationarity_report_rejects_wrong_length_alpha():
    g = IntPoly.parse("X^5-1")
    with pytest.raises(OutOfRangeParameter):
        stationarity_report(g, [11], [[1, 1, 1]], additive_relations(g))


@pytest.mark.parametrize(
    "primes, alphas, error",
    [
        ([11, 13, 12], [[1, 1, 1, 1, 1]], NotSplit),  # 13 does not split X^5-1
        ([11, 12, 13], [[1, 1, 1, 1, 1]], NonPrimeModulus),
        ([11, 31, 5], [[1, 1, 1, 1, 1]], RamifiedPrime),
        ([11, 12], [[1, 1, 1]], OutOfRangeParameter),  # the alpha fails at 11 first
        ([12, 11], [[1, 1, 1]], NonPrimeModulus),
        ([13, 11], [[1, 1, 1]], NotSplit),
    ],
)
def test_stationarity_report_raises_in_prime_order(primes, alphas, error):
    # the roots of all primes are found in one call, but each error is the
    # one a prime-by-prime loop meets first
    g = IntPoly.parse("X^5-1")
    with pytest.raises(error):
        stationarity_report(g, primes, alphas, additive_relations(g))


def test_stationarity_report_fixture():
    g = IntPoly.parse("X^5-1")
    rep = stationarity_report(g, [11, 31, 41], [[1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])
    assert rep["disagreement_count"] == 0
    weyls = {(e["q"], tuple(e["alpha"])): e["weyl"] for e in rep["entries"]}
    for q in (11, 31, 41):
        assert weyls[q, (1, 1, 1, 1, 1)] == 1
        assert weyls[q, (1, 0, 0, 0, 0)] == 0


def test_stationarity_report_lists_each_disagreement():
    # a module without the true relation x_1 + ... + x_5 = 0 of X^5-1
    g = IntPoly.parse("X^5-1")
    primes = [11, 31, 41]
    rep = stationarity_report(g, primes, [[1, 1, 1, 1, 1]], RelationModule(5, (), "additive"))
    assert rep["disagreements"] == [{"q": q, "alpha": [1, 1, 1, 1, 1]} for q in primes]
    assert rep["disagreement_count"] == 3
    assert all(e["weyl"] == 1 and not e["in_Rg"] for e in rep["entries"])


def test_stationarity_random_non_relations():
    g = IntPoly.parse("X^3+X+3")
    module = additive_relations(g)
    rng = philox_generator(2024, "nonrel")
    alphas = []
    while len(alphas) < 10:
        a = [int(x) for x in rng.integers(-2, 3, size=3)]
        if sum(map(abs, a)) == 0 or sum(map(abs, a)) > 4:
            continue
        if module.contains(a):
            continue
        alphas.append(a)
    primes = find_split_primes(g, 1000, 6000)[:10]
    rep = stationarity_report(g, primes, alphas, module)
    assert rep["disagreement_count"] == 0


def test_ks_distance_basic():
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_distance([0.0] * 5, [1.0] * 5) == 1.0
    a = np.linspace(0, 1, 100)
    b = np.linspace(0, 1, 377) ** 2
    d1, d2 = ks_distance(a, b), ks_distance(b, a)
    assert d1 == d2
    assert 0.0 <= d1 <= 1.0


def _ks_on_merged_grid(a, b):
    """The definition: |F_a - F_b| at every point of the merged sample."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_ks_distance_is_bitwise_the_merged_grid_maximum():
    """Reading the statistic at the smaller sample's points, right values
    and left limits, gives the merged-grid float bit for bit: both argument
    orders, sizes 1 to 60 on each side, ties, signed zeros, infinities and
    NaN."""
    rng = philox_generator(8, "ks-exact")
    special = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])
    pools = [
        lambda k: rng.normal(size=k),
        lambda k: rng.integers(0, 4, size=k).astype(np.float64),
        lambda k: rng.choice(special, size=k),
        lambda k: rng.choice(special[:-1], size=k),
    ]
    for n in range(1, 61):
        for m in (1, 2, n, 61 - n, int(rng.integers(1, 61))):
            for draw in pools:
                a, b = draw(n), draw(m)
                want = np.float64(_ks_on_merged_grid(a, b)).tobytes()
                assert np.float64(ks_distance(a, b)).tobytes() == want
                assert np.float64(ks_distance(b, a)).tobytes() == want


def test_ks_distance_matches_scipy():
    rng = philox_generator(3, "ks")
    a = rng.normal(size=800)
    b = rng.normal(size=1234) * 1.1 + 0.05
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b).statistic
    assert abs(ours - ref) < 1e-12


def test_binned_l1_basic():
    rng = philox_generator(4, "l1")
    z = rng.normal(size=500) + 1j * rng.normal(size=500)
    assert binned_l1_2d(z, z, 10) == 0.0
    w = rng.normal(size=500) + 1j * rng.normal(size=500)
    d1 = binned_l1_2d(z, w, 10)
    assert abs(d1 - binned_l1_2d(w, z, 10)) < 1e-12
    assert 0.0 <= d1 <= 1.0
    tight = 0.2 * z  # well inside the square, no edge-bin overlap after clip
    assert binned_l1_2d(tight, tight + 100, 10, bound=3) == 1.0
    with pytest.raises(ValueError):
        binned_l1_2d(z, w, 3)
    for bound in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            binned_l1_2d(z, w, 10, bound=bound)


def test_binned_l1_automatic_bound_ignores_nan():
    """The automatic bound comes from the non-NaN samples only, and a side
    with no non-NaN sample is a ValueError, with or without a bound."""
    assert binned_l1_2d([5, math.nan], [1], 10) == binned_l1_2d([5], [1], 10) == 1.0
    assert binned_l1_2d([complex(math.nan, 7), 5], [1], 10) == 1.0
    for empty in ([math.nan], [complex(1, math.nan)], []):
        for bound in (None, 2.0):
            with pytest.raises(ValueError):
                binned_l1_2d(empty, [1], 10, bound=bound)
            with pytest.raises(ValueError):
                binned_l1_2d([1], empty, 10, bound=bound)


def _binned_l1_reference(a, b, bins, bound):
    """binned_l1_2d through np.histogram2d, as it was computed before the bincount."""
    edges = np.linspace(-bound, bound, bins + 1)

    def hist(z):
        re, im = np.clip(z.real, -bound, bound), np.clip(z.imag, -bound, bound)
        h, _, _ = np.histogram2d(re, im, bins=[edges, edges])
        return h / h.sum()

    return float(0.5 * np.abs(hist(a) - hist(b)).sum())


@pytest.mark.parametrize("bins, bound", [(4, 1.0), (7, 2.5), (10, 3.0), (13, 0.1)])
def test_binned_l1_counts_equal_histogram2d(bins, bound):
    """Every bin count equals np.histogram2d's: the distance to one point in
    bin p is 1 - h[p], so it is compared for a point in every bin, on samples
    at every edge and one ulp either side, at +-bound, beyond it (clipped in,
    +-inf too) and with NaN in either part (dropped)."""
    edges = np.linspace(-bound, bound, bins + 1)
    xs = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                         [-np.inf, np.inf, -1e300, 1e300, -2 * bound, 2 * bound, np.nan]])
    a = np.empty(len(xs) ** 2, dtype=np.complex128)
    # every (re, im) pair of xs; re + 1j*im would turn an infinite im into a NaN re
    a.real, a.imag = np.repeat(xs, len(xs)), np.tile(xs, len(xs))
    centers = (edges[:-1] + edges[1:]) / 2
    for point in (centers[:, None] + 1j * centers[None, :]).ravel():
        got = binned_l1_2d(a, [point], bins, bound=bound)
        assert got == _binned_l1_reference(a, np.array([point]), bins, bound)
    rng = philox_generator(5, "l1-reference")
    b = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * bound
    assert binned_l1_2d(a, b, bins, bound=bound) == _binned_l1_reference(a, b, bins, bound)


def test_binned_l1_blocks_equal_histogram2d(monkeypatch):
    """With 64-sample blocks, NaN and +-inf on both sides of block edges:
    the same counts as np.histogram2d, with an explicit and an automatic
    bound (NaN only there, since an infinite sample makes the bound infinite)."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    rng = philox_generator(6, "l1-blocks")
    a = rng.normal(size=3 * 64 + 7) * 2 + 1j * rng.normal(size=3 * 64 + 7) * 2
    b = rng.normal(size=2 * 64 + 1) + 1j * rng.normal(size=2 * 64 + 1)
    for i, v in zip(range(61, 68), [math.nan, math.inf, -math.inf, complex(0, math.inf),
                                   complex(math.nan, 1), complex(-math.inf, math.nan), 50.0]):
        a[i] = v
    b[63], b[64], b[128] = math.nan, complex(1, -math.inf), math.inf
    for bins, bound in ((7, 2.5), (10, 3.0)):
        assert binned_l1_2d(a, b, bins, bound=bound) == _binned_l1_reference(a, b, bins, bound)
    a_nan, b_nan = a[~np.isinf(a)], b[~np.isinf(b)]
    top = float(np.ceil(np.nanmax(np.abs(np.concatenate([a_nan, b_nan]).view(np.float64)))))
    assert top == 50.0
    assert binned_l1_2d(a_nan, b_nan, 10) == _binned_l1_reference(a_nan, b_nan, 10, top)


def test_conditioning_full_set_reduces_to_exact_weyl():
    g = IntPoly.parse("X^3+X+3")
    q = find_split_primes(g, 1000, 2000)[0]
    full = make_condition_set(q, 1, "full")
    rep = conditioning_experiment(g, q, 1, full, [[1, 0, 0], [1, 1, 1]])
    by_alpha = {tuple(e["alpha"]): e for e in rep["weyl"]}
    assert by_alpha[1, 0, 0]["value_re"] == 0.0 and not by_alpha[1, 0, 0]["in_Rg"]
    assert by_alpha[1, 1, 1]["value_re"] == 1.0 and by_alpha[1, 1, 1]["in_Rg"]
    assert rep["uniformity_metric"] < 1e-12


def test_conditioning_finds_the_roots_once(monkeypatch):
    """The restricted values and every Weyl entry read one root batch (one
    more per alpha before), and equal restricted_sum_values and weyl_sum
    bit for bit."""
    g, q = IntPoly.parse("X^3+X^2+2X+1"), 100357
    half = make_condition_set(q, 1, "interval:0.5")
    alphas = [[1, 1, 1], [1, 0, 0], [0, 1, -1], [2, 1, 0]]
    module = additive_relations(g)
    batches = []

    def spy(g, qs):
        batches.append(list(qs))
        return roots_mod_primes(g, qs)

    monkeypatch.setattr(sums, "roots_mod_primes", spy)
    rep = conditioning_experiment(g, q, 1, half, alphas, module)
    assert batches == [[q]]
    monkeypatch.undo()
    for entry, alpha in zip(rep["weyl"], alphas, strict=True):
        w = weyl_sum(g, q, 1, alpha, half)
        assert (entry["value_re"], entry["value_im"]) == (w.real, w.imag)
    first = restricted_sum_values(g, q, 1, half).mean()
    assert (rep["moments"]["first_re"], rep["moments"]["first_im"]) == (first.real, first.imag)


def test_conditioning_quadratic_residue_image_bound():
    g = IntPoly.parse("X^3+2X^2+3")
    q = find_split_primes(g, 10000, 12000)[0]
    image = make_condition_set(q, 1, "image:X^2")
    rep = conditioning_experiment(g, q, 1, image, [[1, 0, 0], [0, 1, 1], [2, -1, 0]])
    for entry in rep["weyl"]:
        if not entry["in_Rg"]:
            mod = abs(complex(entry["value_re"], entry["value_im"]))
            assert mod <= 5 / math.sqrt(q)
    assert rep["moments"]["second_abs"] > 0


def test_conditioning_interval_detects_non_equidistribution():
    # ind(g) = 1 and gamma((1,1,1)) = -1: the interval-restricted Weyl sum
    # stays near 2/pi instead of vanishing
    g = IntPoly.parse("X^3+X^2+2X+1")
    q = find_split_primes(g, 30000, 40000)[0]
    half = make_condition_set(q, 1, "interval:0.5")
    rep = conditioning_experiment(g, q, 1, half, [[1, 1, 1]])
    assert abs(rep["uniformity_metric"] - 2 / math.pi) < 0.01
    entry = rep["weyl"][0]
    assert abs(abs(complex(entry["value_re"], entry["value_im"])) - 2 / math.pi) < 0.02

