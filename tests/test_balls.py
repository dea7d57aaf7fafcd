"""Enclosure and exactness checks for the ball arithmetic.

Every operation runs at a working precision p of 64, 192 or 1000 bits on
seeded random balls; the same operation on random points of the operand
balls, evaluated at 4p bits, must land in the result ball.  The exact parts
(centers of sums and int multiples, radius and modulus roundings, the
disjointness and zero-test comparisons) are checked against Fractions.
"""

import math
import random
from fractions import Fraction

import pytest
from mpmath import ldexp, mpc, mpf, workprec

from ultrashort.balls import (
    RADIUS_BITS,
    Ball,
    ball_sum,
    below_half_inverse,
    eval_laurent_ball,
    eval_poly_ball,
    power_bounds,
)

PRECISIONS = (64, 192, 1000)
TRIALS = 25


def _rand_mpf(rng, prec):
    """Uniform in [-2, 2) with prec bits."""
    return mpf(rng.randrange(-(1 << prec), 1 << prec)) * 2 / (1 << prec)


def _rand_ball(rng, prec, min_abs=0):
    """A ball with a prec-bit center of modulus in [min_abs, ~3] and a radius
    of 0, up to 2^-k for k in [1, 4], or up to 2^-k for k in [1, prec]
    (below min_abs / 2 when min_abs > 0)."""
    with workprec(prec):
        while True:
            c = mpc(_rand_mpf(rng, prec), _rand_mpf(rng, prec))
            if abs(c) >= min_abs:
                break
        kind = rng.random()
        if kind < 0.2:
            r = mpf(0)
        else:
            k = rng.randint(1, 4) if kind < 0.5 else rng.randint(1, prec)
            r = mpf(2) ** -k * rng.random()
            if min_abs:
                r = min(r, mpf(min_abs) / 2)
        return Ball(c, r)


def _point_in(rng, ball, prec):
    """A point strictly inside the ball, exact at 4 * prec bits: half the
    time near the boundary along +-center, where products and powers of
    points move farthest from the product of the centers."""
    with workprec(4 * prec):
        if rng.random() < 0.5 and ball.center != 0:
            t = 1 - mpf(2) ** -20
            u = ball.center * rng.choice((-1, 1))
        else:
            t = mpf(rng.random()) * (1 - mpf(2) ** -20)
            u = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
        return ball.center + ball.radius * t * u / abs(u)


def _encloses(ball, value, prec):
    with workprec(4 * prec):
        return abs(value - ball.center) <= ball.radius


def _check(rng, prec, operands, ball_op, exact_op):
    with workprec(prec):
        result = ball_op(*operands)
    assert result.radius._mpf_[3] <= RADIUS_BITS
    for _ in range(4):
        xs = [_point_in(rng, b, prec) for b in operands]
        with workprec(4 * prec):
            value = exact_op(*xs)
        assert _encloses(result, value, prec), (prec, operands, xs)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_add_sub_mul_enclose(prec):
    rng = random.Random(prec)
    for _ in range(TRIALS):
        a, b = _rand_ball(rng, prec), _rand_ball(rng, prec)
        n = rng.randint(-(10**6), 10**6)
        _check(rng, prec, [a, b], lambda x, y: x + y, lambda x, y: x + y)
        _check(rng, prec, [a, b], lambda x, y: x - y, lambda x, y: x - y)
        _check(rng, prec, [a, b], lambda x, y: x * y, lambda x, y: x * y)
        _check(rng, prec, [a], lambda x: x * n, lambda x: x * n)
        _check(rng, prec, [a], lambda x: n * x, lambda x: x * n)
        _check(rng, prec, [a], lambda x: x + n, lambda x: x + n)
        _check(rng, prec, [a, b, a], lambda *bs: ball_sum(bs), lambda *xs: sum(xs))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_inverse_and_power_enclose(prec):
    rng = random.Random(10 * prec + 1)
    for _ in range(TRIALS):
        a = _rand_ball(rng, prec, min_abs=mpf(1) / 4)
        e = rng.randint(-6, 6)
        _check(rng, prec, [a], lambda x: x.inverse(), lambda x: 1 / x)
        _check(rng, prec, [a], lambda x: x.power(e), lambda x: x**e)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_polynomial_evaluation_encloses(prec):
    rng = random.Random(10 * prec + 2)
    for _ in range(TRIALS):
        a = _rand_ball(rng, prec, min_abs=mpf(1) / 4)
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        terms = [(rng.randint(-4, 4), rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]

        def poly(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        def laurent(x):
            return sum(c * x**e for e, c in terms)

        _check(rng, prec, [a], lambda x: eval_poly_ball(coeffs, x), poly)
        _check(rng, prec, [a], lambda x: eval_laurent_ball(terms, x), laurent)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_abs_bounds_enclose_the_modulus(prec):
    rng = random.Random(10 * prec + 3)
    for _ in range(TRIALS):
        a = _rand_ball(rng, prec)
        lo, hi = (ldexp(m, e) for m, e in a.abs_bounds())  # exact
        assert 0 <= lo <= hi
        for z in [a.center] + [_point_in(rng, a, prec) for _ in range(4)]:
            with workprec(4 * prec):
                assert lo <= abs(z) <= hi


@pytest.mark.parametrize("prec", PRECISIONS)
def test_overlapping_balls_are_never_disjoint(prec):
    rng = random.Random(10 * prec + 4)
    for _ in range(TRIALS):
        a = _rand_ball(rng, prec)
        b = _rand_ball(rng, prec)
        with workprec(4 * prec):
            gap = abs(a.center - b.center) * (1 + mpf(2) ** (-3 * prec))
            ra = gap * mpf(rng.random())
            # radii summing to at least the gap (Ball rounds radii upward)
            a2, b2 = Ball(a.center, ra), Ball(b.center, gap - ra)
        with workprec(prec):
            assert not a2.disjoint_from(b2)
            assert not b2.disjoint_from(a2)
            assert not a.disjoint_from(a)
            # separated by twice the radii: certified disjoint
            far = Ball(a.center + 3 * (a.radius + 1), a.radius)
            assert a.disjoint_from(far)


def test_touching_balls_are_not_disjoint():
    for prec in PRECISIONS:
        with workprec(prec):
            assert not Ball(0, mpf(1) / 2).disjoint_from(Ball(1, mpf(1) / 2))
            assert not Ball(mpc(0, 1), 3).disjoint_from(Ball(mpc(4, 1), 1))
            assert Ball(0, mpf(1) / 2).disjoint_from(Ball(1, mpf(1) / 4))


def test_disks_touching_at_one_point_are_not_disjoint():
    # |3 + 4i| = 2 + 3 exactly, at scale 1 and at scale 2^-10, where the
    # 53-bit radius 3 * 2^-10 has ulp 2^-61 and so can shrink by 2^-60
    unit = mpf(2) ** -10
    for scale in (mpf(1), unit):
        a, b = Ball(0, 2 * scale), Ball(mpc(3, 4) * scale, 3 * scale)
        assert not a.disjoint_from(b) and not b.disjoint_from(a)
    a, shrunk = Ball(0, 2 * unit), Ball(mpc(3, 4) * unit, 3 * unit - mpf(2) ** -60)
    assert shrunk.radius < 3 * unit
    assert a.disjoint_from(shrunk) and shrunk.disjoint_from(a)


def _fraction(x):
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disjointness_is_decided_exactly(seed):
    # dyadic centers of up to 200 bits, 53-bit radii summing to within a few
    # ulps of the exact gap, against the same comparison on Fractions
    rng = random.Random(seed)
    for _ in range(200):
        s = rng.randint(0, 200)
        parts = [mpf(rng.randint(-(2**200), 2**200)) * mpf(2) ** -s for _ in range(4)]
        a_center, b_center = mpc(parts[0], parts[1]), mpc(parts[2], parts[3])
        with workprec(256):
            gap = abs(a_center - b_center)
        share = gap * mpf(rng.random())
        ra = mpf(share, prec=RADIUS_BITS)
        rb = mpf(gap - ra, prec=RADIUS_BITS) * (1 + rng.randint(-4, 4) * mpf(2) ** -52)
        a, b = Ball(a_center, ra), Ball(b_center, rb)
        dx = _fraction(a_center.real) - _fraction(b_center.real)
        dy = _fraction(a_center.imag) - _fraction(b_center.imag)
        expected = dx * dx + dy * dy > (_fraction(a.radius) + _fraction(b.radius)) ** 2
        assert a.disjoint_from(b) == expected == b.disjoint_from(a)


def test_centers_are_kept_exactly_and_rounded_by_the_first_operation():
    with workprec(512):
        z = mpc(1) / 3 + mpc(0, 2) / 7
    with workprec(64):
        # a 512-bit center stays whole in a 64-bit context, so the radius-0
        # ball still holds exactly z and 3**60 (96 bits)
        assert Ball(z).center == z
        assert Ball(3**60).center == 3**60
        assert Ball(3**60).radius == 0
        # an int multiple and an int sum are exact: no rounding, no pad
        for ball, value in ((Ball(z) * 1, z), (Ball(3**60) + 0, 3**60)):
            assert ball.center == value
            assert ball.radius == 0
        # a product of balls rounds its center to 64 bits and pads the radius
        product = Ball(z) * Ball(1)
        assert product.center != z
        assert product.radius > 0
        assert _encloses(product, z, 128)


def test_inverse_of_a_ball_around_zero_raises():
    with workprec(64):
        with pytest.raises(ZeroDivisionError):
            Ball(mpf(1) / 8, mpf(1) / 4).inverse()
        with pytest.raises(ZeroDivisionError):
            Ball(mpf(1) / 8, mpf(1) / 4).power(-2)


def _parts(ball):
    """The exact center (two Fractions) and radius (a Fraction) of a ball."""
    c = ball.center
    return _fraction(c.real), _fraction(c.imag), _fraction(ball.radius)


def _binade(q):
    """e with 2^e <= q < 2^(e+1), for a Fraction q > 0."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return e - 1 if Fraction(2) ** e > q else e


def _round53(q, up):
    """The Fraction q >= 0 rounded to 53 bits, upward or downward."""
    if q == 0:
        return q
    ulp = Fraction(2) ** (_binade(q) - 52)
    n = q / ulp
    m = n.numerator // n.denominator
    return (m + (up and m != n)) * ulp


def _sqrt53(n, up):
    """sqrt(n) rounded to 53 bits, upward or downward, for a Fraction n >= 0."""
    if n == 0:
        return n
    ulp = Fraction(2) ** (_binade(n) // 2 - 52)
    scaled = n / ulp**2
    m = math.isqrt(scaled.numerator // scaled.denominator)
    return (m + (up and m * m != scaled)) * ulp


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_operations_keep_the_center_and_round_the_radius_once(prec):
    # add, sub and int multiples give the exact center whatever the working
    # precision, and a radius that is one upward 53-bit rounding of r1 + r2
    # or |k| r
    rng = random.Random(10 * prec + 5)
    for _ in range(TRIALS):
        a, b = _rand_ball(rng, prec), _rand_ball(rng, prec)
        k = rng.choice([0, 1, -1, 3, rng.randint(-(10**6), 10**6), rng.randint(-(2**80), 2**80)])
        (ax, ay, ar), (bx, by, br) = _parts(a), _parts(b)
        with workprec(53):
            results = (a + b, a - b, a * k, k * a, a + k, -a, a.conjugate())
        expected = (
            (ax + bx, ay + by, _round53(ar + br, up=True)),
            (ax - bx, ay - by, _round53(ar + br, up=True)),
            (ax * k, ay * k, _round53(abs(k) * ar, up=True)),
            (ax * k, ay * k, _round53(abs(k) * ar, up=True)),
            (ax + k, ay, ar),
            (-ax, -ay, ar),
            (ax, -ay, ar),
        )
        for ball, want in zip(results, expected):
            assert _parts(ball) == want
            assert ball.radius._mpf_[3] <= RADIUS_BITS


@pytest.mark.parametrize("prec", PRECISIONS)
def test_abs_bounds_are_the_directed_roundings_of_the_modulus(prec):
    # |c| rounded down and up to 53 bits; the radius is then subtracted
    # (clipped at 0) or added with one more rounding in the same direction
    rng = random.Random(10 * prec + 6)
    for _ in range(TRIALS):
        a = _rand_ball(rng, prec)
        x, y, r = _parts(a)
        norm = x * x + y * y
        low, high = _sqrt53(norm, up=False), _sqrt53(norm, up=True)
        lower, upper = (_dyadic(b) for b in a.abs_bounds())
        assert tuple(_dyadic(b) for b in Ball(a.center).abs_bounds()) == (low, high)
        assert upper == _round53(high + r, up=True)
        assert lower == _round53(max(low - r, Fraction(0)), up=False)


def _threshold_cases(rng):
    """(u, base, n, tail, threshold) with u just below, just above, on and
    far from the threshold 1 / (2 base^n tail), for n + 1 = D up to 5040."""
    for d in (1, 2, 6, 120, 720, 2520, 5040, rng.randint(1, 5040)):
        a1 = rng.randint(1, 64)
        base = (a1 * rng.randint(2**52, 2**53 - 1), rng.randint(-52, -50))
        tail = (1, 0) if rng.random() < 0.5 else (rng.randint(2**52, 2**53 - 1), -52)
        n = d - 1
        threshold = 1 / (2 * _dyadic(base) ** n * _dyadic(tail))
        k = 200 - _binade(threshold)
        below = (threshold * 2**k).numerator // (threshold * 2**k).denominator
        for u in ((below, -k), (below + 1, -k), (rng.randint(1, 2**53), -k - rng.randint(-8, 8))):
            yield u, base, n, tail, threshold
    # exact ties: base^n tail a power of two
    for n in (0, 1, 5039):
        yield (1, -2 * n - 1), (4, 0), n, (1, 0), Fraction(1, 2 ** (2 * n + 1))
        yield (2**200 - 1, -2 * n - 201), (4, 0), n, (1, 0), Fraction(1, 2 ** (2 * n + 1))


def _dyadic(pair):
    m, e = pair
    return Fraction(m) * Fraction(2) ** e


@pytest.mark.parametrize("seed", [1, 2])
def test_the_zero_test_threshold_is_decided_exactly(seed):
    # u < L/2 for L = 1 / (base^n tail), against the same comparison on
    # Fractions, including u within 2^-200 of the threshold and on it
    rng = random.Random(seed)
    for u, base, n, tail, threshold in _threshold_cases(rng):
        verdict, k = below_half_inverse(u, base, n, tail)
        assert verdict == (_dyadic(u) < threshold), (u, base, n, tail)
        lo, hi = power_bounds(base, n)
        exact = _dyadic(base) ** n
        slack = Fraction(2 * (n + n.bit_length()), 2**63)
        assert exact * (1 - slack) <= _dyadic(lo) <= exact <= _dyadic(hi) <= exact * (1 + slack)
        assert 2**k <= _dyadic(hi) * _dyadic(tail) < 2 ** (k + 1)


@pytest.mark.parametrize(
    "center, radius",
    [
        (1, -5),
        (1, -(mpf(2) ** -60)),
        (1, -0.25),
        (1, float("nan")),
        (1, mpf("nan")),
        (1, float("inf")),
        (1, mpf("inf")),
        (float("nan"), 0),
        (complex(1, float("-inf")), 0),
        (mpf("-inf"), 0),
        (mpc(1, mpf("nan")), 0),
    ],
    ids=lambda v: repr(v),
)
def test_a_negative_or_non_finite_radius_and_a_non_finite_center_are_rejected(center, radius):
    with pytest.raises(ValueError):
        Ball(center, radius)


@pytest.mark.parametrize("parts", [(1, 0, -1, (0, 0)), (1, 0, 0, (-1, 0)), (1, 0, 0, (2**53, 0))])
def test_from_dyadic_rejects_a_negative_scale_or_a_radius_not_53_bits(parts):
    with pytest.raises(ValueError):
        Ball.from_dyadic(*parts)


def test_left_of_and_below_compare_the_interval_ends_exactly():
    # the real (imaginary) intervals [c - r, c + r] of radii 3u and 2u touch
    # when the centers are 5u apart, and separate 2^-200 further on
    unit = mpf(2) ** -70
    a = Ball(0, 3 * unit)
    with workprec(256):
        gaps = ((5 * unit, False), (5 * unit + mpf(2) ** -200, True))
        for gap, separated in gaps:
            right, above = Ball(mpc(gap, 1), 2 * unit), Ball(mpc(1, gap), 2 * unit)
            assert a.left_of(right) is separated and not right.left_of(a)
            assert a.below(above) is separated and not above.below(a)
