"""Complex ball (disk) arithmetic on dyadic integers, with Arb-style radii.

A Ball is a closed disk {z : |z - center| <= radius}.  Operations return a
ball guaranteed to contain every possible exact result for inputs in the
operand balls.  As in Arb (Johansson, "Arb: efficient arbitrary-precision
midpoint-radius interval arithmetic", IEEE Trans. Comput. 66, 2017), the
center is a dyadic number held exactly, (X + iY) 2^-s with integers X, Y
and s >= 0, and the radius a 53-bit dyadic m 2^e (0 <= m < 2^53) rounded
upward:

- add, sub, neg, conjugate and multiplication by an int give the exact
  center; only the radius is rounded, once, upward to 53 bits;
- a product of balls and an inverse round each center component once, to
  nearest at the working precision p; callers control p with
  mpmath.workprec (mp.prec), balls do not store it;
- every modulus bound comes from an integer square root with directed
  rounding (`sqrt_bounds`): round_up for upper bounds, round_down for lower
  bounds; `disjoint_from`, `left_of` and `below` round nothing.

Rounding of a center is covered by one pad, eps * |c~| rounded up, with
eps = 2^(4-p) and c~ the computed center.  Each component of c~ is the exact
product or quotient rounded to nearest with p bits, off by at most half an
ulp, 2^-p of its magnitude, so |c - c~| <= 2^-p |c| <= 2^(1-p) |c~|: an
eighth of the pad.  Every radius adds only upward-rounded terms, so the disk
always encloses the exact result.  mpmath supplies mp.prec, builds the
returned center and radius values, and converts a radius given as neither
int, float nor mpf; it does no arithmetic on balls.

The 53-bit bounds are (m, e) pairs standing for m 2^e; `add_up`, `mul_up`
and `div_up` round their exact result upward, and `below_half_inverse`
decides the zero test's comparison |gamma| < L/2 for a norm bound
L = 1 / (base^n tail) exactly.

>>> from mpmath import mpf, workprec
>>> with workprec(64):
...     third = Ball(mpf(1) / 3) * Ball(3)
...     print(abs(third.center - 1) <= third.radius, third.radius > 0)
True True
>>> (Ball(mpf(1) / 3) * 3 - Ball(1)).radius  # exact: no pad
mpf('0.0')
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

RADIUS_BITS = 53
ZERO = (0, 0)
ONE = (1, 0)
_POWER_BITS = 64


def _finite(raw) -> tuple[int, int]:
    """(n, e) with a raw mpf = n 2^e; ValueError for nan and infinities."""
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError("value must be finite")
    return (-man if sign else man), (exp if man else 0)


def dyadic(c) -> tuple[int, int, int]:
    """(X, Y, s) with c = (X + iY) 2^-s and the least s >= 0, for a finite
    raw mpc c: every finite mpf is an integer times a power of two.

    >>> dyadic(mpc(0.75, -2)._mpc_)
    (3, -8, 2)
    """
    return _joined(_finite(c[0]), _finite(c[1]))


def _joined(re, im) -> tuple[int, int, int]:
    """(X, Y, s) with (X + iY) 2^-s = x 2^a + i y 2^b and the least s >= 0,
    for re = (x, a) and im = (y, b)."""
    (x, a), (y, b) = re, im
    s = max(0, -a if x else 0, -b if y else 0)
    return (x << (a + s) if x else 0), (y << (b + s) if y else 0), s


def _float_parts(value: float) -> tuple[int, int]:
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    n, d = value.as_integer_ratio()
    return n, 1 - d.bit_length()


def _center(value) -> tuple[int, int, int]:
    """value as exact (X, Y, s): a ball keeps its center's every bit."""
    if isinstance(value, int):
        return value, 0, 0
    if isinstance(value, mpc):
        return dyadic(value._mpc_)
    if isinstance(value, mpf):
        return _joined(_finite(value._mpf_), ZERO)
    z = complex(value)
    return _joined(_float_parts(z.real), _float_parts(z.imag))


def _radius(value) -> tuple[int, int]:
    """value as a 53-bit dyadic rounded up; ValueError unless finite and >= 0."""
    if isinstance(value, int):
        n, e = value, 0
    elif isinstance(value, float):
        n, e = _float_parts(value)
    else:
        if not isinstance(value, mpf):
            value = mpf(value, prec=RADIUS_BITS, rounding="u")
        n, e = _finite(value._mpf_)
    if n < 0:
        raise ValueError("radius must be >= 0")
    return _up(n, e)


# ---------------------------------------------------------------------------
# 53-bit dyadic bounds: (m, e) stands for m 2^e


def _up(n: int, e: int, bits: int = RADIUS_BITS) -> tuple[int, int]:
    """n 2^e rounded up to `bits` bits, for an integer n >= 0."""
    k = n.bit_length() - bits
    if k <= 0:
        return n, e
    m = n >> k
    if m << k != n:
        m += 1
        if m >> bits:
            return m >> 1, e + k + 1
    return m, e + k


def _down(n: int, e: int, bits: int = RADIUS_BITS) -> tuple[int, int]:
    """n 2^e rounded down to `bits` bits, for an integer n >= 0."""
    k = n.bit_length() - bits
    return (n, e) if k <= 0 else (n >> k, e + k)


def _aligned(a, b) -> tuple[int, int, int]:
    """(i, j, E) with a = i 2^E and b = j 2^E exactly."""
    (m, e), (n, f) = a, b
    if e <= f:
        return m, n << (f - e), e
    return m << (e - f), n, f


def add_up(a, b) -> tuple[int, int]:
    """a + b rounded up to 53 bits."""
    if not b[0]:
        return a
    if not a[0]:
        return b
    i, j, e = _aligned(a, b)
    return _up(i + j, e)


def _sub_down(a, b) -> tuple[int, int]:
    """max(0, a - b) rounded down to 53 bits."""
    i, j, e = _aligned(a, b)
    return _down(i - j, e) if i > j else ZERO


def mul_up(a, b) -> tuple[int, int]:
    """a * b rounded up to 53 bits."""
    return _up(a[0] * b[0], a[1] + b[1])


def div_up(a, b) -> tuple[int, int]:
    """a / b rounded up to 53 bits, for b > 0.

    With k chosen so that q = floor(a_m 2^k / b_m) has at least 55 bits,
    a / b = q 2^E exactly or lies strictly inside (q, q + 1) 2^E, as
    (2q + 1) 2^(E-1) does; the 53-bit grid spacing there is at least 4 units
    of q, so no grid point falls inside that interval and both round up to
    the same number.
    """
    (m, e), (n, f) = a, b
    if not m:
        return ZERO
    k = RADIUS_BITS + 2 + n.bit_length() - m.bit_length()
    q, r = divmod(m << k, n) if k >= 0 else divmod(m, n << -k)
    return _up(2 * q + (r != 0), e - f - k - 1)


def sqrt_bounds(n: int, shift: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """sqrt(n) * 2^shift for an integer n >= 0, rounded down and up to 53
    bits.

    With 2t = bit_length(n) - 105 or - 106, q = isqrt(n / 4^t) has exactly
    53 bits (floor(sqrt(floor(x))) = floor(sqrt(x)), so n / 4^t may be
    truncated), and q * 2^t <= sqrt(n) <= (q + [q^2 4^t != n]) * 2^t are the
    directed roundings of sqrt(n) itself.

    >>> sqrt_bounds(121, -2)[0] == sqrt_bounds(121, -2)[1] == (11 << 49, -51)
    True
    """
    if n == 0:
        return ZERO, ZERO
    t = (n.bit_length() - 105) // 2
    m = n >> (2 * t) if t >= 0 else n << (-2 * t)
    q = math.isqrt(m)
    exact = (q * q << (2 * t)) == n if t >= 0 else q * q == m
    return (q, t + shift), (q, t + shift) if exact else _up(q + 1, t + shift)


def power_bounds(x, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Dyadics lo <= x^n <= hi for a dyadic x >= 0 and an integer n >= 0:
    binary powering whose every product is truncated to 64 bits, rounded down
    for lo and up for hi.  Each truncation moves a value by less than 2^-63
    of itself, and the k-th squaring's error is raised to a power of at
    most n / 2^k, so x^n / lo and hi / x^n are below (1 + 2^-63)^(n + b)
    for b = bit_length(n): about 1 + 2^-50 for n < 5040.

    >>> power_bounds((3, -1), 4)  # (3/2)^4 = 81/16, exact
    ((81, -4), (81, -4))
    """
    lo = hi = ONE
    base_lo = base_hi = x
    while n:
        if n & 1:
            lo = _down(lo[0] * base_lo[0], lo[1] + base_lo[1], _POWER_BITS)
            hi = _up(hi[0] * base_hi[0], hi[1] + base_hi[1], _POWER_BITS)
        n >>= 1
        if n:
            base_lo = _down(base_lo[0] * base_lo[0], 2 * base_lo[1], _POWER_BITS)
            base_hi = _up(base_hi[0] * base_hi[0], 2 * base_hi[1], _POWER_BITS)
    return lo, hi


def _below_one(n: int, e: int) -> bool:
    """n 2^e < 1 for an integer n >= 0."""
    return not n or n.bit_length() + e <= 0


def below_half_inverse(u, base, n: int, tail=ONE) -> tuple[bool, int]:
    """(u < 1 / (2 base^n tail), k) for dyadics u >= 0 and base, tail >= 1
    and an integer n >= 0; the verdict is exact, and 2^k <= hi tail < 2^(k+1)
    for the upper bound hi of `power_bounds`.

    The 64-bit bounds lo <= base^n <= hi decide every u outside a window of
    relative width about 2 (n + b) 2^-63 around the threshold; inside it the
    verdict comes from base^n itself, an exact integer power.

    >>> below_half_inverse((1, -7), (2, 0), 5)  # 2^-7 < 2^-6
    (True, 5)
    >>> below_half_inverse((1, -6), (2, 0), 5)  # 2^-6 = 2^-6
    (False, 5)
    """
    (um, ue), (tm, te) = u, tail
    (lo, lo_e), (hi, hi_e) = power_bounds(base, n)
    k = (hi * tm).bit_length() - 1 + hi_e + te
    if _below_one(2 * um * hi * tm, ue + hi_e + te):
        return True, k
    if not _below_one(2 * um * lo * tm, ue + lo_e + te):
        return False, k
    bm, be = base
    return _below_one(2 * um * bm**n * tm, ue + be * n + te), k


def _on_one_scale(x: int, s: int, y: int, t: int) -> tuple[int, int, int]:
    """(x', y', S) with x 2^-s = x' 2^-S and y 2^-t = y' 2^-S, S = max(s, t)."""
    if s < t:
        return x << (t - s), y, t
    return x, y << (s - t), s


def _exceeds(gap: int, s: int, r, q) -> bool:
    """gap 2^-s > r + q, exactly, for radii r and q."""
    i, j, e = _aligned(r, q)
    k = e + s
    return gap > (i + j) << k if k >= 0 else gap << -k > i + j


# ---------------------------------------------------------------------------
# rounded centers


def _nearest(n: int, p: int) -> tuple[int, int]:
    """(q, k) with q 2^k the integer n rounded to nearest with p bits, ties
    to even."""
    k = abs(n).bit_length() - p
    if k <= 0:
        return n, 0
    q = n >> k
    rest = n - (q << k)
    half = 1 << (k - 1)
    if rest > half or (rest == half and q & 1):
        q += 1
    return q, k


def _nearest_quotient(n: int, d: int, p: int) -> tuple[int, int]:
    """(q, k) with q 2^k the quotient n / d (d > 0) rounded to nearest with
    p bits, ties to even: a floor quotient of at least p + 2 bits and a
    sticky bit for its remainder round as n / d does."""
    if not n:
        return 0, 0
    k = p + 2 + d.bit_length() - abs(n).bit_length()
    q, r = divmod(n << k, d) if k >= 0 else divmod(n, d << -k)
    q, j = _nearest(2 * q + (r != 0), p)
    return q, j - k - 1


class Ball:
    __slots__ = ("_x", "_y", "_s", "_r")

    def __init__(self, center, radius=0):
        self._x, self._y, self._s = _center(center)
        self._r = _radius(radius)

    @classmethod
    def from_dyadic(cls, x: int, y: int, s: int, radius=ZERO) -> "Ball":
        """The ball (x + iy) 2^-s +- m 2^e for radius (m, e), taken as it is:
        s >= 0 and a 53-bit m >= 0."""
        m = radius[0]
        if s < 0 or m < 0 or m >> RADIUS_BITS:
            raise ValueError("need s >= 0 and a 53-bit radius >= 0")
        return _ball(x, y, s, radius)

    @property
    def center(self) -> mpc:
        return mp.make_mpc((from_man_exp(self._x, -self._s), from_man_exp(self._y, -self._s)))

    @property
    def dyadic_center(self) -> tuple[int, int, int]:
        """The center as (X, Y, s), the point (X + iY) 2^-s, exactly."""
        return self._x, self._y, self._s

    @property
    def radius(self) -> mpf:
        return mp.make_mpf(from_man_exp(*self._r))

    def __repr__(self):
        return f"Ball({self.center}, {self.radius})"

    def _plus(self, other: "Ball", sign: int) -> "Ball":
        x, u, s = _on_one_scale(self._x, self._s, other._x, other._s)
        y, v, _ = _on_one_scale(self._y, self._s, other._y, other._s)
        return _ball(x + sign * u, y + sign * v, s, add_up(self._r, other._r))

    def __add__(self, other) -> "Ball":
        if isinstance(other, int):
            return _ball(self._x + (other << self._s), self._y, self._s, self._r)
        return self._plus(other, 1)

    def __sub__(self, other: "Ball") -> "Ball":
        return self._plus(other, -1)

    def __mul__(self, other) -> "Ball":
        if isinstance(other, int):
            m, e = self._r
            return _ball(self._x * other, self._y * other, self._s, _up(m * abs(other), e))
        p = mp.prec
        a, b, c, d = self._x, self._y, other._x, other._y
        r, q = self._r, other._r
        # |xy - ab| <= |a| q + |b| r + r q for x in B(a, r), y in B(b, q)
        rad = mul_up(r, q)
        if q[0]:
            rad = add_up(rad, mul_up(self._abs_center()[1], q))
        if r[0]:
            rad = add_up(rad, mul_up(other._abs_center()[1], r))
        s = self._s + other._s
        (x, i), (y, j) = _nearest(a * c - b * d, p), _nearest(a * d + b * c, p)
        return _padded(_joined((x, i - s), (y, j - s)), rad, p)

    __rmul__ = __mul__

    def __neg__(self) -> "Ball":
        return _ball(-self._x, -self._y, self._s, self._r)

    def conjugate(self) -> "Ball":
        return _ball(self._x, -self._y, self._s, self._r)

    def inverse(self) -> "Ball":
        low, _ = self.abs_bounds()
        if not low[0]:
            raise ZeroDivisionError("ball contains zero")
        p = mp.prec
        x, y, s = self._x, self._y, self._s
        # 1/c = (x - iy) 2^s / (x^2 + y^2)
        norm = x * x + y * y
        (u, i), (v, j) = _nearest_quotient(x, norm, p), _nearest_quotient(-y, norm, p)
        center = _joined((u, i + s), (v, j + s))
        # |1/z - 1/a| = |z - a| / (|z||a|) <= r / (low * |a|), the
        # denominator an exact product of lower bounds
        (m, e), (n, f) = low, self._abs_center()[0]
        return _padded(center, div_up(self._r, (m * n, e + f)), p)

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

    def _abs_center(self):
        """|center| rounded down and up to 53 bits."""
        x, y = self._x, self._y
        return sqrt_bounds(x * x + y * y, -self._s)

    def abs_bounds(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Lower (>= 0) and upper bounds of |z| over the ball, as 53-bit
        dyadics (m, e) rounded down and up."""
        low, high = self._abs_center()
        return _sub_down(low, self._r), add_up(high, self._r)

    def disjoint_from(self, other: "Ball") -> bool:
        # exact: |c1 - c2|^2 > (r1 + r2)^2 on the integers of the centers'
        # difference (X + iY) 2^-s and of the radii's exact sum
        x, u, s = _on_one_scale(self._x, self._s, other._x, other._s)
        y, v, _ = _on_one_scale(self._y, self._s, other._y, other._s)
        i, j, e = _aligned(self._r, other._r)
        gap = (x - u) ** 2 + (y - v) ** 2
        k = e + s
        return gap > ((i + j) << k) ** 2 if k >= 0 else gap << (-2 * k) > (i + j) ** 2

    def left_of(self, other: "Ball") -> bool:
        """Every point of this disk has a smaller real part than every point
        of other; decided exactly."""
        x, u, s = _on_one_scale(self._x, self._s, other._x, other._s)
        return _exceeds(u - x, s, self._r, other._r)

    def below(self, other: "Ball") -> bool:
        """Every point of this disk has a smaller imaginary part than every
        point of other; decided exactly."""
        y, v, s = _on_one_scale(self._y, self._s, other._y, other._s)
        return _exceeds(v - y, s, self._r, other._r)


def _ball(x: int, y: int, s: int, r) -> Ball:
    b = Ball.__new__(Ball)
    b._x, b._y, b._s, b._r = x, y, s, r
    return b


def _padded(center, r, p: int) -> Ball:
    """The ball of a rounded center, its radius r plus 2^(4-p) |center|
    rounded up; eps = 2^(4-p) is a power of two, so scaling by it is exact."""
    x, y, s = center
    m, e = sqrt_bounds(x * x + y * y, -s)[1]
    return _ball(x, y, s, add_up(r, (m, e + 4 - p)))


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
