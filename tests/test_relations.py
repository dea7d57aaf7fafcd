"""Certified roots, relation lattices, ind(g), dominant-root criterion."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mpf

import ultrashort
from ultrashort.arith import IntPoly, LaurentPoly, find_split_primes, roots_mod_prime
from ultrashort.errors import (
    OutOfRangeParameter,
    PrecisionExhausted,
    VanishingValue,
    ZeroRootWithNegativeExponent,
)
from ultrashort.relations import (
    additive_relations,
    certified_complex_roots,
    dominant_root_holds,
    gamma_is_zero,
    index_ind,
    joint_power_relations,
    multiplicative_relations,
    negation_pairing,
    value_relations,
)

X = LaurentPoly.x()


# ---------------------------------------------------------------------------
# certified boxes


def test_certified_roots_sqrt2():
    boxes = certified_complex_roots(IntPoly.parse("X^2-2"), 128)
    centers = boxes.centers()
    assert abs(centers[0] - (-math.sqrt(2))) < 1e-15
    assert abs(centers[1] - math.sqrt(2)) < 1e-15
    assert all(b.radius <= mpf(2) ** -64 for b in boxes.boxes)


def test_certified_roots_linear():
    boxes = certified_complex_roots(IntPoly.parse("X-5"), 64)
    assert boxes.centers() == [5.0]
    # one Newton step from the float seed lands on -c exactly, even where c
    # is beyond the float range or not a float
    for c in (10**400, -(3**500)):
        (box,) = certified_complex_roots(IntPoly((c, 1)), 128).boxes
        x, y, s = box.dyadic_center
        assert (x, y) == (-c << s, 0) and box.radius == 0


def test_certified_roots_cube_roots_of_unity_order():
    boxes = certified_complex_roots(IntPoly.parse("X^3-1"), 128)
    centers = boxes.centers()
    # lexicographic by (Re, Im): conjugate pair first (negative Im below)
    assert abs(centers[0] - complex(-0.5, -math.sqrt(3) / 2)) < 1e-15
    assert abs(centers[1] - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
    assert abs(centers[2] - 1.0) < 1e-15


def test_certified_roots_refinable_same_order():
    g = IntPoly.parse("X^3+X+3")
    coarse = certified_complex_roots(g, 128)
    fine = certified_complex_roots(g, 512)
    for a, b in zip(coarse.boxes, fine.boxes):
        assert abs(complex(a.center) - complex(b.center)) < 1e-15
        assert b.radius <= a.radius


def test_boxes_pairwise_disjoint():
    boxes = certified_complex_roots(IntPoly.parse("X^5-1"), 128)
    balls = boxes.boxes
    for i in range(5):
        for j in range(i + 1, 5):
            assert balls[i].disjoint_from(balls[j])


def test_roots_closer_than_a_double_ulp_are_isolated_and_ordered():
    # (X-1)^10 - 2(1000(X-1) - 1)^2 has two real roots at 1.001 -+ 7.1e-19,
    # 1/300 of a 53-bit ulp apart, so the base, the balls and the order must
    # keep every bit of the centers
    g = IntPoly.parse(
        "X^10-10X^9+45X^8-120X^7+210X^6-252X^5+210X^4-120X^3-1999955X^2+4003990X-2004001"
    )
    boxes = certified_complex_roots(g, 128).boxes
    near = [b for b in boxes if abs(complex(b.center) - 1.001) < 1e-9]
    assert len(near) == 2
    lo, hi = near
    assert boxes.index(lo) + 1 == boxes.index(hi)
    gap = hi.center.real - lo.center.real
    assert mpf("1.4e-18") < gap < mpf("1.5e-18")
    assert lo.radius + hi.radius < gap


def _seeded_septic(seed):
    """Monic, trace-zero, separable, with small seeded coefficients."""
    rng = random.Random(seed)
    while True:
        coeffs = [rng.choice((-1, 1))] + [rng.randint(-2, 2) for _ in range(5)] + [0, 1]
        try:
            return IntPoly(tuple(coeffs))
        except ValueError:
            continue


SEPTICS = [IntPoly.parse("X^7-1"), _seeded_septic(11)]


@pytest.mark.parametrize("g", SEPTICS, ids=str)
def test_newton_from_the_stable_base_stops_once_converged(g, monkeypatch):
    # the base is boxes certified at radius 2^-128 and a working precision
    # of 464 bits, so from their centers at radius_bits <= 128 Newton
    # converges within a step or two and then stops; each step evaluates
    # g and g' once by fixed-point Horner
    import ultrashort.relations as R

    base = R._stable_base(g)
    calls = []
    per_root = []
    real_horner, real_newton = R._fixed_horner, R._newton

    def horner_spy(*args):
        calls.append(1)
        return real_horner(*args)

    def newton_spy(*args):
        before = len(calls)
        z = real_newton(*args)
        evaluations = len(calls) - before
        assert evaluations % 2 == 0
        per_root.append(evaluations // 2)
        return z

    monkeypatch.setattr(R, "_fixed_horner", horner_spy)
    monkeypatch.setattr(R, "_newton", newton_spy)
    for bits in (64, 96, 128):
        per_root.clear()
        R._certify_boxes(g, base, bits)
        assert len(per_root) == g.degree
        assert 1 <= min(per_root) and max(per_root) <= 3, (bits, per_root)


def _fresh_box_caches(monkeypatch):
    """Empty the box and root-order caches for this test only."""
    import functools

    import ultrashort.relations as R

    for name in ("_stable_base", "_boxes_at", "_order_map"):
        fresh = functools.lru_cache(maxsize=None)(getattr(R, name).__wrapped__)
        monkeypatch.setattr(R, name, fresh)


@pytest.fixture
def certified_radii(monkeypatch):
    """The radius_bits of every `_certify_boxes` call, on box caches emptied
    for this test only."""
    import ultrashort.relations as R

    _fresh_box_caches(monkeypatch)
    radii = []
    real = R._certify_boxes

    def spy(g, approx, radius_bits):
        radii.append(radius_bits)
        return real(g, approx, radius_bits)

    monkeypatch.setattr(R, "_certify_boxes", spy)
    return radii


def test_certified_roots_below_256_bits_reuse_the_boxes_of_the_root_order(certified_radii):
    import ultrashort.relations as R

    g = IntPoly.parse("X^7-1")
    R._order_map(g)
    before = len(certified_radii)
    assert before >= 1
    for bits in (128, 255):
        roots = certified_complex_roots(g, bits)
        assert all(b.radius <= mpf(2) ** -128 for b in roots.boxes)
    assert len(certified_radii) == before


def test_no_radius_is_certified_twice_or_below_the_base(certified_radii):
    # detection, then the certify steps: roots, zero tests, negation and the
    # dominant-root criterion; the base (2^-128 for X^7-1) comes first and
    # serves every coarser request
    g = IntPoly.parse("X^7-1")
    assert additive_relations.__wrapped__(g).basis == ((1,) * 7,)
    roots = certified_complex_roots(g, 128)
    assert gamma_is_zero([1] * 7, roots)
    assert not gamma_is_zero([1] * 6 + [0], roots)
    assert not gamma_is_zero([1, -1, 2, 0, 0, 3, -3], roots)
    assert negation_pairing(g) == ([], list(range(7)))
    assert dominant_root_holds(g) is False
    assert certified_radii[0] == 128
    assert min(certified_radii) == 128
    assert len(set(certified_radii)) == len(certified_radii), certified_radii


def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@pytest.mark.parametrize("g", SEPTICS, ids=str)
def test_certified_radius_bounds_the_nearest_root_estimate(g):
    # rho must be at least d * |g(z)| / |g'(z)| at its own center, recomputed
    # at 4x the working precision
    import mpmath

    import ultrashort.relations as R

    base = R._stable_base(g)
    d = g.degree
    deriv = g.derivative_coeffs()
    for bits in (64, 128, 256):
        work = 2 * bits + 16 * d + 96
        for box in R._certify_boxes(g, base, bits):
            assert isinstance(box.radius, mpf)
            with mpmath.workprec(4 * work):
                z = box.center
                exact = d * abs(_horner(g.coeffs, z)) / abs(_horner(deriv, z))
                assert box.radius >= exact


@pytest.mark.parametrize("g", SEPTICS, ids=str)
def test_a_center_newton_left_unconverged_fails_certification(g, monkeypatch):
    # the certificate never trusts Newton: a kernel that moves each start by
    # 2^-40 and stops leaves radii near d 2^-40, far above 2^-128
    import ultrashort.relations as R

    base = R._stable_base(g)

    def off_by_2_to_minus_40(coeffs, deriv, start, w, steps):
        x, y, s = start
        return (x << (w - s)) + (1 << (w - 40)), y << (w - s)

    monkeypatch.setattr(R, "_newton", off_by_2_to_minus_40)
    with pytest.raises(R._CertificationFailed):
        R._certify_boxes(g, base, 128)


CLUSTER = IntPoly.parse(
    "X^10-10X^9+45X^8-120X^7+210X^6-252X^5+210X^4-120X^3-1999955X^2+4003990X-2004001"
)


@pytest.mark.parametrize(
    "g, polyroots_calls",
    [(IntPoly.parse("X^5-1"), 0), (IntPoly.parse("X^7-1"), 0), (_seeded_septic(11), 0),
     (CLUSTER, 1)],
    ids=str,
)
def test_stable_base_takes_the_float_seed_unless_it_cannot_certify(g, polyroots_calls,
                                                                   monkeypatch):
    # the double-precision seed certifies wherever the roots are further apart
    # than its accuracy; the sub-ulp cluster falls through to polyroots
    import mpmath

    import ultrashort.relations as R

    calls = []
    real_polyroots = mpmath.polyroots

    def polyroots_spy(*args, **kwargs):
        calls.append(1)
        return real_polyroots(*args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", polyroots_spy)
    base = R._stable_base.__wrapped__(g)  # uncached
    assert len(calls) == polyroots_calls
    assert len(base) == g.degree


def _isolated_promptly(g, monkeypatch):
    """The two root boxes of g, isolated in under 10 s below a lowered
    precision cap, so a regression raises PrecisionExhausted at once instead
    of escalating towards 2^20 bits."""
    import ultrashort.relations as R

    assert R._float_seed(g) is not None
    monkeypatch.setattr(R, "PRECISION_CAP_BITS", 8192)
    started = time.perf_counter()
    lo, hi = certified_complex_roots(g, 128).boxes
    assert time.perf_counter() - started < 10
    assert lo.radius <= mpf(2) ** -65 and hi.radius <= mpf(2) ** -65
    return lo, hi


def _fits_a_float(n):
    try:
        return math.isfinite(float(n))
    except OverflowError:
        return False


@pytest.mark.parametrize("exponent, fits_a_float", [(150, True), (400, False)])
def test_roots_far_from_the_origin_are_isolated_promptly(exponent, fits_a_float, monkeypatch):
    # the base radius is relative to the Cauchy bound, so its working
    # precision covers roots of size 10^75 and 10^200; 10^400 overflows a
    # float, so the float seed scales the roots by 2^k first
    assert _fits_a_float(10**exponent) == fits_a_float
    lo, hi = _isolated_promptly(IntPoly((-(10**exponent), 0, 1)), monkeypatch)
    root = 10 ** (exponent // 2)
    assert lo.center == -root and hi.center == root


def test_irrational_roots_beyond_the_float_range_are_isolated_promptly(monkeypatch):
    # no polyroots rung converges on X^2 - 2*10^400, so only the scaled
    # float seed isolates its roots
    import mpmath

    constant = 2 * 10**400
    assert not _fits_a_float(constant)
    lo, hi = _isolated_promptly(IntPoly((-constant, 0, 1)), monkeypatch)
    with mpmath.workprec(4096):
        root = mpmath.sqrt(constant)
        assert abs(lo.center + root) <= lo.radius and abs(hi.center - root) <= hi.radius


def _fraction(bound):
    man, exp = bound
    return Fraction(man) * Fraction(2) ** exp


def _dyadic_points(seed):
    """0, integer-valued, real, imaginary and negative-exponent points
    z = (x + iy) 2^-s, each as (x, y, s) and its exact value as a pair of
    Fractions."""
    rng = random.Random(seed)
    parts = [(0, 0, 0), (3, 0, 0), (-7, 2, 0), (0, -5, 0)]
    for _ in range(12):
        s = rng.randint(1, 90)
        x, y = rng.randint(-(2**60), 2**60), rng.randint(-(2**60), 2**60)
        parts += [(x, y, s), (x, 0, s), (0, y, s)]
    for x, y, s in parts:
        yield (x, y, s), Fraction(x, 2**s), Fraction(y, 2**s)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_abs_bounds_are_the_directed_53_bit_roundings(seed):
    import ultrashort.relations as R

    rng = random.Random(100 + seed)
    polys = [[rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 8))] + [1]
             for _ in range(4)]
    polys.append(list(_seeded_septic(11).coeffs))
    for coeffs in polys:
        deriv = [j * c for j, c in enumerate(coeffs)][1:]
        for z, x, y in _dyadic_points(seed):
            for poly, (lower, upper) in zip((coeffs, deriv), R._abs_poly_bounds(coeffs, *z)):
                re, im = Fraction(0), Fraction(0)
                for c in reversed(poly):
                    re, im = re * x - im * y + c, re * y + im * x
                norm = re * re + im * im  # |p(z)|^2 or |p'(z)|^2, exact
                lo, hi = _fraction(lower), _fraction(upper)
                assert lo * lo <= norm <= hi * hi
                for bound in (lower, upper):
                    assert 0 <= bound[0] < 2**53
                if lo != hi:
                    man, exp = lower
                    assert hi - lo == Fraction(2) ** (exp + abs(man).bit_length() - 53)


# ---------------------------------------------------------------------------
# gamma zero test


def test_gamma_is_zero_examples():
    roots3 = certified_complex_roots(IntPoly.parse("X^3-1"), 128)
    assert gamma_is_zero([1, 1, 1], roots3)
    assert not gamma_is_zero([1, 0, 0], roots3)
    roots = certified_complex_roots(IntPoly.parse("X^3+X+3"), 128)
    assert gamma_is_zero([1, 1, 1], roots)
    assert gamma_is_zero([0, 0, 0], roots)
    assert not gamma_is_zero([2, 1, 1], roots)


def test_orbit_size_counts_distinct_rearrangements():
    from ultrashort.relations import _orbit_size

    def brute(alpha):
        return len(set(itertools.permutations(alpha)))

    vectors = [list(a) for n in range(1, 6) for a in itertools.product((-1, 0, 2), repeat=n)]
    vectors += [[1] * 6, [1, 1, 1, 1, 1, 0], [3, -3, 3, -3, 0, 0], [1, 2, 3, 4, 5, 6]]
    for alpha in vectors:
        assert _orbit_size(alpha) == brute(alpha), alpha
    # index_ind's vectors: roots plus a fixed 1.  Galois moves only the first
    # d entries, a subset of the rearrangements of the whole vector.
    for alpha in vectors:
        for c in (-1, 0, 1):
            full = alpha + [c]
            fixed_last = {p + (c,) for p in itertools.permutations(alpha)}
            assert _orbit_size(full) == brute(full)
            assert len(fixed_last) <= _orbit_size(full)


def test_all_ones_zero_test_decides_at_the_first_level(monkeypatch):
    # gamma = x_1 + ... + x_7 is a rational integer (orbit 1), so the first
    # 128-bit enclosure of |gamma| < 1, the base's, already certifies it,
    # whatever the degree bound (d! = 5040 here)
    import ultrashort.relations as R

    g = IntPoly.parse("X^7-1")
    roots = certified_complex_roots(g, 128)
    levels = []
    real = R._sorted_boxes

    def spy(poly, bits):
        levels.append(bits)
        return real(poly, bits)

    monkeypatch.setattr(R, "_sorted_boxes", spy)
    assert gamma_is_zero([1] * 7, roots)
    assert levels == [128]


def _boxes_asked(monkeypatch):
    """The radius bits of every `_boxes_at` request from now on."""
    import ultrashort.relations as R

    asked = []
    real = R._boxes_at

    def spy(g, bits):
        asked.append(bits)
        return real(g, bits)

    monkeypatch.setattr(R, "_boxes_at", spy)
    return asked


def test_zero_test_refines_to_the_bits_its_norm_bound_needs(monkeypatch):
    # the roots are -sqrt(8), -sqrt(2), sqrt(2), sqrt(8) times 10^40, so
    # 2 x_3 - x_4 = 0; the norm bound of a nonzero value is far below the
    # 128-bit enclosure, and the next level is the bits that bound needs
    import ultrashort.relations as R

    g = IntPoly((16 * 10**160, 0, -10 * 10**80, 0, 1))
    roots = certified_complex_roots(g, 64)
    asked = _boxes_asked(monkeypatch)
    assert gamma_is_zero([0, 0, 2, -1], roots)
    assert max(asked) > R._base_bits(g)


def test_zero_test_refines_while_a_value_to_invert_meets_zero(monkeypatch):
    # v = qX - p for a convergent p/q of sqrt(2) with q > 2^450: v(sqrt(2))
    # is about 1/q, so the product enclosure divides by a ball that meets 0
    # until the boxes are fine enough; v(-sqrt(2)) v(sqrt(2)) = p^2 - 2q^2 = 1
    import ultrashort.relations as R

    p, q = 1, 1
    while not (q > 2**450 and p * p - 2 * q * q == 1):
        p, q = p + 2 * q, p + q
    raised = []
    real = R._product_enclosure

    def counting(g, v, alpha):
        enclose = real(g, v, alpha)

        def spy(bits, degree_bound):
            try:
                return enclose(bits, degree_bound)
            except ZeroDivisionError:
                raised.append(bits)
                raise

        return spy

    monkeypatch.setattr(R, "_product_enclosure", counting)
    g = IntPoly.parse("X^2-2")
    asked = _boxes_asked(monkeypatch)
    module = multiplicative_relations.__wrapped__(g, LaurentPoly(((0, -p), (1, q))))
    assert module.basis == ((1, 1),)
    assert raised and max(asked) > R._base_bits(g)


def test_a_basis_row_that_fails_to_certify_raises_under_python_O():
    # the re-check of the reduced basis is not an assert, which -O strips
    code = (
        "from ultrashort.relations import _detect_module\n"
        "verdicts = iter([True])\n"
        "_detect_module(2, 'additive', lambda bits: [[1], [-1]],\n"
        "               lambda alpha: next(verdicts, False), 64, 2)\n"
    )
    src = os.path.dirname(os.path.dirname(ultrashort.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert "RuntimeError: basis reduction left the certified module" in proc.stderr


def test_seeded_non_relations_test_false():
    rng = random.Random(7)
    for text in ["X^7-1", "X^7-X-1"]:
        roots = certified_complex_roots(IntPoly.parse(text), 128)
        assert gamma_is_zero([1] * 7, roots)
        # small orbits (one entry off) and random vectors, never constant
        samples = [[1] * 6 + [0], [0] * 6 + [1], [2] * 3 + [1] * 4]
        while len(samples) < 12:
            alpha = [rng.randint(-3, 3) for _ in range(7)]
            if len(set(alpha)) > 1:
                samples.append(alpha)
        for alpha in samples:
            assert not gamma_is_zero(alpha, roots), (text, alpha)


def test_degree_bound_below_one_is_rejected():
    g = IntPoly.parse("X^3+X+3")
    roots = certified_complex_roots(g, 128)
    for bound in (0, -2):
        with pytest.raises(OutOfRangeParameter):
            additive_relations(g, degree_bound=bound)
        with pytest.raises(OutOfRangeParameter):
            gamma_is_zero([1, 1, 1], roots, degree_bound=bound)
        with pytest.raises(OutOfRangeParameter):
            joint_power_relations(g, (0,), degree_bound=bound)


def test_coeff_cap_below_one_is_rejected():
    # a cap below 1 searches no vector, so every module would come out empty
    # and ind(X - 3) would read 0 instead of 3
    g = IntPoly.parse("X^2+1")
    for cap in (0, -3):
        with pytest.raises(OutOfRangeParameter):
            additive_relations(g, cap)
        with pytest.raises(OutOfRangeParameter):
            value_relations(g, X, cap)
        with pytest.raises(OutOfRangeParameter):
            joint_power_relations(g, (0,), cap)
        with pytest.raises(OutOfRangeParameter):
            multiplicative_relations(g, X, cap)
        with pytest.raises(OutOfRangeParameter):
            index_ind(IntPoly.parse("X-3"), cap)
    assert index_ind(IntPoly.parse("X-3")) == 3


# ---------------------------------------------------------------------------
# additive relations


@pytest.mark.parametrize(
    "text,rank",
    [
        ("X^3-1", 1),
        ("X^5-1", 1),
        ("X^7-1", 1),
        ("X^6-1", 4),
        ("X^3+2X^2+3", 0),
        ("X^3+X+3", 1),
    ],
)
def test_additive_rank_fixtures(text, rank):
    mod = additive_relations(IntPoly.parse(text))
    assert mod.rank == rank


def test_additive_basis_all_ones_for_prime_cyclotomic():
    for ell in (3, 5, 7):
        mod = additive_relations(IntPoly.parse(f"X^{ell}-1"))
        assert mod.basis == ((1,) * ell,)


def test_cyclotomic_rank_identity():
    # rank R_{X^d-1} = d - phi(d); pass the true field degree phi(d) as the
    # user-asserted bound to keep the certification precision reasonable
    def phi(d):
        return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)

    for d in range(2, 13):
        mod = additive_relations(IntPoly.parse(f"X^{d}-1"), degree_bound=phi(d))
        assert mod.rank == d - phi(d), f"d={d}"


def test_orbit_bound_matches_the_true_field_degree():
    # the only certified vectors of X^7-1 are multiples of the all-ones row,
    # whose orbit is 1, so the default d! and the field degree 6 agree
    g = IntPoly.parse("X^7-1")
    default, exact = additive_relations(g), additive_relations(g, degree_bound=6)
    assert default.basis == exact.basis
    assert default.certificate["precision_bits"] == exact.certificate["precision_bits"]


def test_lll_reduces_the_x3_minus_1_detection_matrix():
    # the 96-bit detection rows of X^3-1: (e_i | round(2^96 Re x_i), round(2^96 Im x_i))
    from ultrashort.lattice import lll_rows

    re, im = 39614081257132168796771975168, 68613601432514898801242805944
    rows = [
        [1, 0, 0, -re, -im],
        [0, 1, 0, -re, im],
        [0, 0, 1, 2 * re, 0],
    ]
    assert lll_rows(rows)[0] == [1, 1, 1, 0, 0]


def test_additive_relations_stable_under_higher_start_precision():
    import ultrashort.relations as R

    g = IntPoly.parse("X^6-1")
    mod = additive_relations(g)
    old = R._DETECTION_START_BITS
    R._DETECTION_START_BITS = old * 2
    additive_relations.cache_clear()
    try:
        again = additive_relations(g)
    finally:
        R._DETECTION_START_BITS = old
        additive_relations.cache_clear()
    assert mod.basis == again.basis


def test_galois_stability_of_basis_rows_mod_split_primes():
    # relation sums vanish mod q with sorted labels for these fixtures: the
    # lattice is invariant under every relabeling the sorted order can induce
    for text in ["X^3-1", "X^5-1", "X^7-1", "X^3+X+3"]:
        g = IntPoly.parse(text)
        mod = additive_relations(g)
        for q in find_split_primes(g, 1000, 3000)[:5]:
            roots = roots_mod_prime(g, q).roots
            for row in mod.basis:
                assert sum(a * r for a, r in zip(row, roots)) % q == 0, (text, q)


def _index_module(g):
    """The relation module index_ind(g) reads ind(g) from."""
    import ultrashort.relations as R

    modules = []
    real = R._linear_relations

    def spy(*args):
        modules.append(real(*args))
        return modules[-1]

    R._linear_relations = spy
    try:
        index_ind.__wrapped__(g)
    finally:
        R._linear_relations = real
    return modules[0]


P = IntPoly.parse


@pytest.mark.parametrize(
    "kind, compute, basis, degree_bound, cap_reached",
    [
        ("additive", lambda: additive_relations(P("X^3+X+3")), [[1, 1, 1]], 6, True),
        ("additive", lambda: additive_relations(P("X^6-1")),
         [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, -1, 1], [0, 0, 0, 1, 1, -1]],
         720, False),
        ("additive", lambda: additive_relations(P("X^7-1")), [[1] * 7], 5040, True),
        ("value", lambda: value_relations(P("X^5-1"), LaurentPoly.parse("X+X^-1")),
         [[1, 1, 0, 2, 1], [0, 2, 0, 2, 1], [0, 0, 1, -1, 0]], 120, True),
        ("joint", lambda: joint_power_relations(P("X^3-1"), (1, -1)), [[1, 1, 1]], 6, False),
        ("multiplicative", lambda: multiplicative_relations(P("X^2-2"), X), [[2, -2]], 2,
         False),
        ("multiplicative", lambda: multiplicative_relations(P("X^3-1"), X),
         [[1, 1, 0], [0, 3, 0], [0, 0, 1]], 6, True),
        ("index", lambda: _index_module(P("X^3+X^2+2X+1")), [[1, 1, 1, 1]], 6, True),
    ],
    ids=["X^3+X+3", "X^6-1", "X^7-1", "value-X^5-1", "joint-X^3-1", "mult-X^2-2",
         "mult-X^3-1", "index-X^3+X^2+2X+1"],
)
def test_certificates_are_pinned(kind, compute, basis, degree_bound, cap_reached):
    # every field of the module and of its certificate: changes to how roots
    # are boxed and how zero tests are run must leave all of them as they are
    module = compute()
    assert module.to_json_dict() == {
        "d": len(basis[0]), "basis": basis, "precision_bits": 384, "kind": kind,
    }
    assert module.certificate == {
        "precision_bits": 384,
        "degree_bound": degree_bound,
        "coeff_cap": 64,
        "stable_doublings": 2,
        "cap_reached": cap_reached,
        "lower_bound": "norm bound (||alpha||_1 * M)^-(min(degree_bound, orbit(alpha)) - 1)",
    }


def test_relation_module_json_roundtrip():
    from ultrashort.relations import RelationModule

    mod = additive_relations(IntPoly.parse("X^3+X+3"))
    data = mod.to_json_dict()
    back = RelationModule.from_json_dict(data)
    assert back.basis == mod.basis
    assert back.ambient_rank == mod.ambient_rank
    assert back.kind == "additive"


# ---------------------------------------------------------------------------
# value and joint relations


def test_value_relations_examples():
    v = LaurentPoly.parse("X+X^-1")
    assert value_relations(IntPoly.parse("X^5-1"), v).rank == 3
    mod = value_relations(IntPoly.parse("X^3-1"), v)
    assert mod.rank == 2
    assert mod.contains([1, 1, 1])
    assert mod.contains([1, -1, 0])  # pairs the conjugate roots xi, xi^2
    mod = value_relations(IntPoly.parse("X^2-2"), LaurentPoly.parse("X^2"))
    assert mod.basis == ((1, -1),)


def test_value_relations_rank_identity_prime_cyclotomic():
    v = LaurentPoly.parse("X+X^-1")
    for ell in (3, 5, 7):
        def phi(d):
            return d - 1

        mod = value_relations(
            IntPoly.parse(f"X^{ell}-1"), v, degree_bound=phi(ell)
        )
        assert mod.rank == (ell + 1) // 2


def test_value_relations_preconditions():
    with pytest.raises(OutOfRangeParameter):
        value_relations(IntPoly.parse("X^2-2"), LaurentPoly.parse("7"))
    with pytest.raises(OutOfRangeParameter):
        joint_power_relations(IntPoly.parse("X^2-2"), (1, 1))
    with pytest.raises(ZeroRootWithNegativeExponent):
        value_relations(IntPoly.parse("X^2-X"), LaurentPoly.parse("X^-1"))


def test_joint_power_relations_examples():
    assert joint_power_relations(IntPoly.parse("X^3-1"), (1, -1)).basis == ((1, 1, 1),)
    assert joint_power_relations(IntPoly.parse("X^3+2X^2+3"), (1,)).rank == 0
    assert joint_power_relations(IntPoly.parse("X^2-2"), (2, 4)).basis == ((1, -1),)


def test_joint_module_is_one_detection_that_reports_its_cap(monkeypatch):
    # the stacked columns of every exponent go through one detection, which
    # reports the capped candidates it saw as value_relations does
    import ultrashort.lattice as lattice_module
    import ultrashort.relations as R

    g = IntPoly.parse("X^3+2X^2+3")
    calls = []
    real = R._linear_relations

    def spy(*args):
        calls.append(args[3])
        return real(*args)

    def forbidden(*args):
        raise AssertionError("a joint module is not an intersection")

    monkeypatch.setattr(R, "_linear_relations", spy)
    monkeypatch.setattr(lattice_module, "intersect_rows", forbidden)
    joint = joint_power_relations.__wrapped__(g, (1,))
    assert calls == ["joint"]
    assert joint.rank == 0 and joint.certificate["cap_reached"] is True
    assert value_relations(g, X).certificate["cap_reached"] is True
    # x^0 = 1 is one more column pair, (1, 0): the relations with sum 0
    assert joint_power_relations.__wrapped__(IntPoly.parse("X^3+X+3"), (0,)).basis == (
        (1, 0, -1), (0, 1, -1))
    assert joint_power_relations.__wrapped__(IntPoly.parse("X^3-1"), (0, 1)).rank == 0


def test_joint_is_contained_in_each_factor():
    g = IntPoly.parse("X^5-1")
    joint = joint_power_relations(g, (1, -1))
    for m in (1, -1):
        single = value_relations(g, LaurentPoly.monomial(m))
        for row in joint.basis:
            assert single.contains(list(row))


# ---------------------------------------------------------------------------
# multiplicative relations


def test_multiplicative_examples():
    mod = multiplicative_relations(IntPoly.parse("X^3-1"), X)
    assert mod.rank == 3
    assert mod.contains([3, 0, 0])
    mod = multiplicative_relations(IntPoly.parse("X^2-2"), X)
    assert mod.basis == ((2, -2),)
    assert not mod.contains([1, -1])  # sqrt2 * (-sqrt2)^-1 = -1 != 1
    assert multiplicative_relations(IntPoly.parse("X-5"), X).rank == 0


def test_multiplicative_brute_force_oracle_sqrt2():
    # oracle: exhaustive exponent search with exact arithmetic in Z[sqrt 2]
    # (a + b sqrt2 represented as (a, b)); relations with sup norm <= 3
    def mul(p, q):
        return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def power(base, e):
        out = (1, 0)
        for _ in range(e):
            out = mul(out, base)
        return out

    found = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            # (-sqrt2)^a * (sqrt2)^b = 1, cleared of denominators:
            # multiply by 2^(|a|+|b|) to stay integral
            lhs = power((0, -1), a + 4) if a >= -3 else None
            # simpler: exponents shifted to nonnegative by adding 4 to both
            lhs = mul(power((0, -1), a + 4), power((0, 1), b + 4))
            rhs = power((2, 0), 4)  # (sqrt2)^4 * (-sqrt2)^4 = 2^4
            if lhs == rhs:
                found.add((a, b))
    mod = multiplicative_relations(IntPoly.parse("X^2-2"), X)
    for a, b in found:
        if (a, b) != (0, 0):
            assert mod.contains([a, b]), (a, b)
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert mod.contains([a, b]) == ((a, b) in found)


def test_multiplicative_vanishing_value():
    with pytest.raises(VanishingValue):
        multiplicative_relations(IntPoly.parse("X^2-1"), LaurentPoly.parse("X-1"))


# ---------------------------------------------------------------------------
# ind(g) and dominant root


@pytest.mark.parametrize(
    "text,expected",
    [
        ("X^3+X^2+2X+1", 1),
        ("X^2+1", 0),
        ("X^2+5", 0),
        ("X-5", 5),
        ("X^2-2", 0),
    ],
)
def test_index_examples(text, expected):
    assert index_ind(IntPoly.parse(text)) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("X^2-6X+1", True),  # 3+2sqrt2 > 3-2sqrt2
        ("X^2+1", False),  # |i| = |-i|
        ("X^3+X+3", False),  # moduli 1.21, 1.57, 1.57
        ("X^2-2", False),  # |sqrt2| = |-sqrt2|
        ("X^2-10X+1", True),
        ("X^3-7X^2+14X-8", True),  # real roots 1, 2, 4: 4 > 1 + 2
        ("X^3-X^2-14X+24", False),  # real roots 2, 3, -4: 4 < 2 + 3
        # conjugation and negation join the roots of X^4+1 (or X^4+4) in one
        # class of four
        ("X^5-100X^4+X-100", True),  # (X-100)(X^4+1): 100 > 4
        ("X^5-3X^4+4X-12", False),  # (X-3)(X^4+4): 3 < 4 sqrt2
    ],
)
def test_dominant_root_examples(text, expected):
    assert dominant_root_holds(IntPoly.parse(text)) is expected


@pytest.mark.parametrize(
    "text",
    [
        "X^3-10X-1",  # roots 3.2, -3.1, -0.1 sum to 0: |x0| = |x1| + |x2|
        "X^4-4X^3+X^2+6X",  # roots 3, 2, -1 and the exact root 0: 3 = 2 + 1 + 0
    ],
)
def test_dominant_root_all_real_tie_is_decided(text, monkeypatch):
    # the tie is one certified zero test; a lowered cap makes a regression
    # raise PrecisionExhausted at once instead of refining towards 2^20 bits
    import ultrashort.relations as R

    monkeypatch.setattr(R, "PRECISION_CAP_BITS", 8192)
    started = time.perf_counter()
    assert dominant_root_holds(IntPoly.parse(text)) is False
    assert time.perf_counter() - started < 10


def test_dominant_root_implies_trivial_relations():
    for text in ["X^2-6X+1", "X^2-10X+1", "X^3-40X^2+2X+1"]:
        g = IntPoly.parse(text)
        if dominant_root_holds(g):
            assert additive_relations(g).rank == 0


@pytest.mark.parametrize(
    "text",
    [
        "X^3-2",  # one real and two complex roots, all of modulus 2^(1/3)
        "X^6-1",  # six roots of modulus 1
        "X^3-8",  # all of modulus exactly 2, a tie conjugation and negation miss
    ],
)
def test_dominant_root_equal_moduli_are_decided_promptly(text, monkeypatch):
    # each modulus is below the sum of the others, which certified bounds
    # show at the first level; a lowered cap makes a regression raise
    # PrecisionExhausted at once instead of refining towards 2^20 bits
    import ultrashort.relations as R

    monkeypatch.setattr(R, "PRECISION_CAP_BITS", 8192)
    started = time.perf_counter()
    assert dominant_root_holds(IntPoly.parse(text)) is False
    assert time.perf_counter() - started < 10


def test_dominant_root_genuine_tie_exhausts_precision(monkeypatch):
    # (X-2)(X^2+X+1): |2| = |w| + |w^2| exactly, with non-real roots, so
    # no certified comparison can decide it; cap the escalation
    import ultrashort.relations as R

    monkeypatch.setattr(R, "PRECISION_CAP_BITS", 8192)
    with pytest.raises(PrecisionExhausted):
        dominant_root_holds(IntPoly.parse("X^3-X^2-X-2"))


def test_negation_pairing():
    pairs, unpaired = negation_pairing(IntPoly.parse("X^6-1"))
    assert sorted(tuple(sorted(p)) for p in pairs) == [(0, 5), (1, 4), (2, 3)]
    assert unpaired == []
    pairs, unpaired = negation_pairing(IntPoly.parse("X^3+X+3"))
    assert pairs == [] and unpaired == [0, 1, 2]


@pytest.mark.parametrize(
    "text, search, result, calls",
    [
        ("X^3+X+3", "order", (2, 1, 0), "000"),
        ("X^3+X+3", "negation", ([], [0, 1, 2]), "000"),
        ("X^3+X+3", "dominant", False, ""),
        ("X^4-10X^2+1", "order", (0, 2, 3, 1), ""),
        ("X^4-10X^2+1", "negation", ([(0, 3), (1, 2)], []), "1001 0110 0110 1001"),
        ("X^4-10X^2+1", "dominant", False, ""),
        ("X^6-1", "order", (0, 2, 1, 4, 3, 5), "000000 000000"),
        ("X^6-1", "negation", ([(0, 5), (1, 4), (2, 3)], []),
         "000000 000000 100001 010010 001100 001100 010010 100001"),
        ("X^6-1", "dominant", False, ""),
        ("X^8-1", "order", (0, 2, 1, 4, 3, 7, 6, 5), "00000000 00000000 00000000"),
        ("X^8-1", "negation", ([(0, 7), (1, 6), (2, 5), (3, 4)], []),
         "00000000 00000000 00000000 10000001 01000010 00100100 00011000 00011000 "
         "00100100 01000010 10000001"),
        ("X^8-1", "dominant", False, ""),
        ("X^4+4", "order", (1, 0, 3, 2), "0000 0000"),
        ("X^4+4", "negation", ([(0, 3), (1, 2)], []), "0000 0000 1001 0110 0110 1001"),
        ("X^4+4", "dominant", False, ""),
        ("X^2-2", "order", (0, 1), ""),
        ("X^2-2", "negation", ([(0, 1)], []), "11 11"),
        ("X^2-2", "dominant", False, "11 11"),
    ],
)
def test_root_map_searches_make_the_pinned_zero_tests(text, search, result, calls, monkeypatch):
    # every zero test of the root order, the negation pairing and the
    # dominant-root criterion on fresh caches, in call order: the vector's
    # digits, with "!" before a nonzero verdict.  The root order's all-zero
    # vectors are the real-part ties of conjugate pairs.
    import ultrashort.relations as R

    _fresh_box_caches(monkeypatch)
    made = []
    real = R._zero_test

    def spy(alpha, degree_bound, enclose):
        verdict = real(alpha, degree_bound, enclose)
        made.append("!" * (not verdict) + "".join(map(str, alpha)))
        return verdict

    monkeypatch.setattr(R, "_zero_test", spy)
    run = {"order": R._order_map, "negation": negation_pairing, "dominant": dominant_root_holds}
    assert run[search](IntPoly.parse(text)) == result
    assert " ".join(made) == calls


# ---------------------------------------------------------------------------
# certified basis rows (defining-equation spot checks)


def test_every_basis_row_satisfies_its_defining_equation():
    import mpmath

    with mpmath.workprec(300):
        g = IntPoly.parse("X^6-1")
        roots = [b.center for b in certified_complex_roots(g, 512).boxes]
        for row in additive_relations(g).basis:
            assert abs(sum(a * r for a, r in zip(row, roots))) < mpf(2) ** -200
        v = LaurentPoly.parse("X+X^-1")
        g5 = IntPoly.parse("X^5-1")
        vals = [r + 1 / r for r in
                (b.center for b in certified_complex_roots(g5, 512).boxes)]
        for row in value_relations(g5, v).basis:
            assert abs(sum(a * w for a, w in zip(row, vals))) < mpf(2) ** -200


def test_smith_normal_form_reexport():
    import ultrashort

    snf = ultrashort.smith_normal_form([[2, 0], [0, 3]])
    assert snf.invariant_factors == (1, 6)
