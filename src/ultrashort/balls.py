"""Complex ball (disk) arithmetic on top of mpmath, with Arb-style radii.

A Ball is a closed disk {z : |z - center| <= radius}.  Operations return a
ball guaranteed to contain every possible exact result for inputs in the
operand balls.  As in Arb (Johansson, "Arb: efficient arbitrary-precision
midpoint-radius interval arithmetic", IEEE Trans. Comput. 66, 2017):

- a ball built from a value keeps that center exactly, and every
  operation rounds its center to nearest at the working precision p;
  callers control p with mpmath.workprec, balls do not store it;
- every radius and every magnitude bound is a 53-bit mpf computed through
  mpmath.libmp with directed rounding, round_up for upper bounds and
  round_down for lower bounds.  |c| is bounded from the 53-bit roundings
  of Re c and Im c, so no operation takes a full-precision abs;
- `disjoint_from` rounds nothing: centers and radii are dyadic, so it
  compares |c1 - c2|^2 with (r1 + r2)^2 on integers (`dyadic`).

Rounding of the center is covered by one pad, eps * |c~| rounded up, with
eps = 2^(4-p) and c~ the computed center.  Each center is one mpmath
complex operation: the exact sum, difference or product (also by an int)
rounded once per component, or for 1/c a quotient of parts carried at
p + 10 bits and then rounded once.  Each component is then off by at most
one ulp plus 2^-(p+8) relative, so |c - c~| <= 2^(1-p) (1 + 2^-8) |c|
<= 2^(2-p) |c~|: a quarter of the pad.  Every radius below also adds only
upward-rounded terms, so the disk always encloses the exact result.

>>> from mpmath import mpf, workprec
>>> with workprec(64):
...     third = Ball(mpf(1) / 3) * 3
...     print(abs(third.center - 1) <= third.radius, third.radius > 0)
True True
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    fzero,
    mpc_add,
    mpc_add_mpf,
    mpc_conjugate,
    mpc_div,
    mpc_mul,
    mpc_mul_int,
    mpc_neg,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_down,
    round_nearest,
    round_up,
)

RADIUS_BITS = 53


def dyadic(c) -> tuple[int, int, int]:
    """(X, Y, s) with c = (X + iY) 2^-s and the least s >= 0, for a finite
    raw mpc c: every finite mpf is an integer times a power of two.

    >>> dyadic(mpc(0.75, -2)._mpc_)
    (3, -8, 2)
    """
    (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = c
    if rbc < 0 or ibc < 0:
        raise ValueError("c must be finite")
    s = max(0, -rexp if rman else 0, -iexp if iman else 0)
    x = (-rman if rsign else rman) << (rexp + s)
    y = (-iman if isign else iman) << (iexp + s)
    return x, y, s


def _abs(z, rnd) -> tuple:
    """|z| for a raw mpc z as a raw 53-bit mpf, rounded up or down by rnd."""
    a = mpf_abs(z[0], RADIUS_BITS, rnd)
    b = mpf_abs(z[1], RADIUS_BITS, rnd)
    s = mpf_add(mpf_mul(a, a, RADIUS_BITS, rnd), mpf_mul(b, b, RADIUS_BITS, rnd), RADIUS_BITS, rnd)
    return mpf_sqrt(s, RADIUS_BITS, rnd)


def _add_up(x, y) -> tuple:
    return mpf_add(x, y, RADIUS_BITS, round_up)


def _mul_up(x, y) -> tuple:
    return mpf_mul(x, y, RADIUS_BITS, round_up)


def _padded(c, r, prec) -> "Ball":
    """Ball(c, r + eps * |c| rounded up) from raw parts; eps = 2^(4-prec),
    a power of two, so multiplying by it is an exact shift."""
    return _ball(c, _add_up(r, mpf_shift(_abs(c, round_up), 4 - prec)))


def _exact(center) -> tuple:
    """center as a raw mpc, unrounded: a ball keeps its center's every bit
    (mpc() would round it to the working precision and leave the radius
    short); the first operation rounds, and its pad covers that."""
    if isinstance(center, mpc):
        return center._mpc_
    if isinstance(center, mpf):
        return (center._mpf_, fzero)
    if isinstance(center, int):
        return (from_int(center), fzero)
    z = complex(center)
    return (from_float(z.real), from_float(z.imag))


def _ball(c, r) -> "Ball":
    b = Ball.__new__(Ball)
    b._c = c
    b._r = r
    return b


class Ball:
    __slots__ = ("_c", "_r")

    def __init__(self, center, radius=0):
        self._c = _exact(center)
        self._r = mpf(radius, prec=RADIUS_BITS, rounding=round_up)._mpf_

    @property
    def center(self) -> mpc:
        return mp.make_mpc(self._c)

    @property
    def radius(self) -> mpf:
        return mp.make_mpf(self._r)

    def __repr__(self):
        return f"Ball({self.center}, {self.radius})"

    def __add__(self, other) -> "Ball":
        prec = mp.prec
        if isinstance(other, int):
            c = mpc_add_mpf(self._c, from_int(other), prec, round_nearest)
            return _padded(c, self._r, prec)
        c = mpc_add(self._c, other._c, prec, round_nearest)
        return _padded(c, _add_up(self._r, other._r), prec)

    def __sub__(self, other: "Ball") -> "Ball":
        prec = mp.prec
        c = mpc_sub(self._c, other._c, prec, round_nearest)
        return _padded(c, _add_up(self._r, other._r), prec)

    def __mul__(self, other) -> "Ball":
        prec = mp.prec
        if isinstance(other, int):
            c = mpc_mul_int(self._c, other, prec, round_nearest)
            return _padded(c, _mul_up(self._r, from_int(abs(other))), prec)
        a, b, r, s = self._c, other._c, self._r, other._r
        # |xy - ab| <= |a| s + |b| r + r s for x in B(a, r), y in B(b, s)
        rad = _add_up(_mul_up(_abs(a, round_up), s), _mul_up(_abs(b, round_up), r))
        return _padded(mpc_mul(a, b, prec, round_nearest), _add_up(rad, _mul_up(r, s)), prec)

    __rmul__ = __mul__

    def __neg__(self) -> "Ball":
        return _ball(mpc_neg(self._c), self._r)

    def conjugate(self) -> "Ball":
        return _ball(mpc_conjugate(self._c, None), self._r)

    def inverse(self) -> "Ball":
        low = self._abs_lower()
        if low == fzero:
            raise ZeroDivisionError("ball contains zero")
        prec = mp.prec
        c = mpc_div((fone, fzero), self._c, prec, round_nearest)
        # |1/z - 1/a| = |z - a| / (|z||a|) <= r / (low * |a|)
        denom = mpf_mul(low, _abs(self._c, round_down), RADIUS_BITS, round_down)
        return _padded(c, mpf_div(self._r, denom, RADIUS_BITS, round_up), prec)

    def power(self, e: int) -> "Ball":
        if e == 0:
            return Ball(1)
        base = self.inverse() if e < 0 else self
        e = abs(e)
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _abs_lower(self) -> tuple:
        v = mpf_sub(_abs(self._c, round_down), self._r, RADIUS_BITS, round_down)
        return v if mpf_gt(v, fzero) else fzero

    def abs_upper(self) -> mpf:
        """Upper bound of |z| over the ball, a 53-bit mpf rounded up."""
        return mp.make_mpf(_add_up(_abs(self._c, round_up), self._r))

    def abs_lower(self) -> mpf:
        """Lower bound (>= 0) of |z| over the ball, a 53-bit mpf rounded down."""
        return mp.make_mpf(self._abs_lower())

    def disjoint_from(self, other: "Ball") -> bool:
        # exact: the centers' difference (X + iY) 2^-s and the radii's sum
        # m 2^e (precision 0) are dyadic, and |X + iY|^2 > m^2 2^(2(e+s))
        # is decided on integers
        x, y, s = dyadic(mpc_sub(self._c, other._c, 0))
        _, m, e, bc = mpf_add(self._r, other._r, 0)
        if bc < 0:
            return False  # an infinite radius
        k = e + s
        gap = x * x + y * y
        return gap > (m << k) ** 2 if k >= 0 else gap << (-2 * k) > m * m


def ball_sum(balls) -> Ball:
    acc = Ball(0)
    for b in balls:
        acc = acc + b
    return acc


def eval_poly_ball(coeffs, x: Ball) -> Ball:
    """Evaluate an integer-coefficient polynomial (lowest first) on a ball."""
    acc = Ball(0)
    for c in reversed(coeffs):
        acc = acc * x + int(c)
    return acc


def eval_laurent_ball(terms, x: Ball) -> Ball:
    """Evaluate ((e, c), ...) Laurent terms on a ball; x must exclude 0 if e < 0."""
    acc = Ball(0)
    for e, c in terms:
        acc = acc + x.power(e) * int(c)
    return acc
