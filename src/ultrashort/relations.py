"""Certified complex roots of g and the lattices of relations among them.

The additive, value, joint-power and ind(g) lattices are one object, the
kernel of alpha -> (sum alpha_i y_i) over one or more lists of algebraic
integers y_i, computed by one engine (`_linear_relations`) from ball
factories enclosing them (`_row_test`): the sorted roots x_i
(`_sorted_boxes`), the values v(x_i) scaled to algebraic integers
(`_integral_value_balls`), the sorted roots with 1 appended (index), or one
factory x_i^m per exponent m, so that a joint module is one detection over
stacked columns.  All kinds, the multiplicative one with its log/arg
columns and winding row included, share one detection path
(`_detect_module`, the only code that builds LLL rows):

  1. detect candidate integer vectors with LLL on rows (e_i | scaled value
     columns) at an escalating scaling 2^B;
  2. certify each candidate exactly with the one zero test (`_zero_test`),
     for both kinds: ball arithmetic gives an enclosure of the candidate
     value (`_sum_enclosure`, or `_product_enclosure` for prod v^alpha - 1),
     and a nonzero value is an algebraic integer, up to a cleared factor,
     whose conjugates are explicitly bounded, so its norm being a nonzero
     rational integer forces it away from 0 by a computable amount; the norm
     has at most min(degree_bound, orbit(alpha)) factors, because every
     conjugate is the same expression in a rearrangement of alpha
     (`_orbit_size`);
  3. saturate the certified sublattice of the linear kinds (kernels of maps
     into torsion-free groups are saturated, so saturation never leaves the
     true module; a multiplicative lattice may not be), re-certify the basis
     rows and reduce to row Hermite normal form;
  4. accept once the result is stable across two consecutive doublings of B.

Completeness is therefore asserted by stability, not by a proven height
bound; every reported basis vector is individually certified, and vectors
with sup-norm above the coefficient cap are simply not searched.  The
certificate attached to each module records all of this.  Every root box
comes from one cache (`_boxes_at`): the certified base, at a radius of
2^-128 or finer, serves every coarser request, and each finer radius is
Newton-refined from the base centers once.  The root order, the negation
pairing and the dominant-root criterion decide their ties by the same zero
test, on boxes refined along one ladder (`_box_levels`), and `_partners` is
their one root-map search: which root conjugation or negation sends each
root to.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mpf, workprec

from . import lattice
from .arith import IntPoly, LaurentPoly
from .balls import (
    ONE,
    Ball,
    add_up,
    ball_sum,
    below_half_inverse,
    div_up,
    eval_laurent_ball,
    eval_poly_ball,
    mul_up,
    power_bounds,
    sqrt_bounds,
)
from .errors import (
    OutOfRangeParameter,
    PrecisionExhausted,
    VanishingValue,
    ZeroRoot,
    ZeroRootWithNegativeExponent,
)

DEFAULT_COEFF_CAP = 64
PRECISION_CAP_BITS = 1 << 20
_DETECTION_START_BITS = 96
_DETECTION_CAP_BITS = 1 << 14
_STABLE_DOUBLINGS = 2


def _degree_bound(g: IntPoly, degree_bound: int | None) -> int:
    """min(degree_bound, d!), or d! when it is None.

    [K_g : Q] <= d! for every g, and a conjugate of any value the zero tests
    decide is its image under one of [K_g : Q] embeddings, so the clamp is
    sound for every kind, `index`'s length-(d + 1) vectors included.  A
    bound below 1 would turn the norm bound into a lower bound >= 1 and
    certify small nonzero values as 0, so it is rejected.
    """
    full = math.factorial(g.degree)
    if degree_bound is None:
        return full
    if degree_bound < 1:
        raise OutOfRangeParameter(f"degree_bound must be >= 1, got {degree_bound}")
    return min(int(degree_bound), full)


def _coeff_cap(coeff_cap: int | None) -> int:
    """The largest sup-norm of a searched vector, DEFAULT_COEFF_CAP for None.
    Below 1 no nonzero vector is searched and every module would come out
    empty, so it is rejected."""
    if coeff_cap is None:
        return DEFAULT_COEFF_CAP
    if coeff_cap < 1:
        raise OutOfRangeParameter(f"coeff_cap must be >= 1, got {coeff_cap}")
    return int(coeff_cap)


def _orbit_size(alpha) -> int:
    """Number of distinct rearrangements of alpha: len! / prod (multiplicity)!."""
    n = math.factorial(len(alpha))
    for mult in collections.Counter(int(a) for a in alpha).values():
        n //= math.factorial(mult)
    return n


# ---------------------------------------------------------------------------
# certified root boxes


@dataclass
class CertifiedBoxList:
    """All d roots of g, as pairwise disjoint certified boxes (balls).

    Boxes are sorted by (Re, Im) of the true roots; Re ties are decided by a
    certified equality test, so the order is stable under refinement.
    """

    poly: IntPoly
    precision_bits: int
    boxes: tuple[Ball, ...]

    def centers(self) -> list[complex]:
        return [complex(b.center) for b in self.boxes]


def _float_seed(g: IntPoly):
    """Double-precision roots of g from numpy's companion-matrix eigenvalues,
    or None when a root is not finite.

    Coefficients beyond the float range are scaled first: the roots of the
    monic 2^(-kd) g(2^k Y), whose coefficients c_j 2^(-k(d-j)) are below
    2^512 for the least such k >= 0, times 2^k.  Python's int / int rounds
    each quotient once, and the scaling by 2^k is exact.
    """
    d = g.degree
    # the least k with bit_length(c_j) <= 512 + k (d - j) for every j < d
    k = max(0, *(-((512 - abs(c).bit_length()) // (d - j)) for j, c in enumerate(g.coeffs[:d])))
    scaled = [c / (1 << (k * (d - j))) for j, c in enumerate(g.coeffs)]
    try:
        roots = np.roots(scaled[::-1])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(roots).all():
        return None
    return tuple(Ball(complex(r)) * 2**k for r in roots)


def _seeds(g: IntPoly):
    """Root approximations for _stable_base as exact balls, cheapest first:
    the float seed, then mpmath.polyroots at 256, 512, ... bits up to the
    precision cap."""
    seed = _float_seed(g)
    if seed is not None:
        yield seed
    monic = [1] + [int(c) for c in reversed(g.coeffs[:-1])]
    prec = 256
    while prec <= PRECISION_CAP_BITS:
        try:
            with workprec(prec):
                roots = mpmath.polyroots(monic, maxsteps=400, extraprec=prec)
        except mpmath.libmp.NoConvergence:
            pass
        else:
            yield tuple(Ball(r) for r in roots)
        prec *= 2


def _base_bits(g: IntPoly) -> int:
    """B of the base radius 2^-B: 128, the first level of every search, or
    64 + bit_length(1 + max |c_i|) when that is more.  The latter is relative
    to the Cauchy bound on the roots, so the working precision of
    `_certify_boxes`, which grows with radius_bits, grows with their size."""
    return max(128, 64 + (1 + max(abs(c) for c in g.coeffs)).bit_length())


@lru_cache(maxsize=None)
def _stable_base(g: IntPoly) -> tuple[Ball, ...]:
    """The first box level: certified boxes of radius <= 2^-B (`_base_bits`)
    that fix the identity (index) of every root of g.

    The seeds of `_seeds` are tried in turn, and the first whose boxes
    `_certify_boxes` certifies wins.  A double-precision seed (Edelman and
    Murakami, Math. Comp. 64, 1995) is enough for most g, a linear g
    included, whose Newton step from any seed lands on its root exactly; a
    cluster closer than its accuracy, or coefficients beyond the float
    range, fall through to mpmath.polyroots.  Every finer level
    Newton-iterates from the centers of these boxes, not from the seed, so
    it starts within 2^-B of its root, needs a step or two, and indices
    never change between precisions.
    """
    bits = _base_bits(g)
    for seed in _seeds(g):
        try:
            return _certify_boxes(g, seed, bits)
        except (_CertificationFailed, ZeroDivisionError):
            continue  # ZeroDivisionError: Newton met a critical point of g
    raise PrecisionExhausted("cannot isolate the roots of g")


class _CertificationFailed(Exception):
    pass


def _fixed_horner(coeffs, x: int, y: int, w: int) -> tuple[int, int]:
    """p(z) 2^w for z = (x + iy) 2^-w, in fixed point: Horner on Gaussian
    integers, each product truncated by >> w."""
    re, im = int(coeffs[-1]) << w, 0
    for c in reversed(coeffs[:-1]):
        re, im = ((re * x - im * y) >> w) + (int(c) << w), (re * y + im * x) >> w
    return re, im


def _newton(coeffs, deriv, start, w: int, steps: int) -> tuple[int, int]:
    """Newton's iteration for p from the dyadic start (X, Y, s), the point
    (X + iY) 2^-s, in fixed point on Gaussian integers; coeffs and deriv are
    the integer coefficients of p and p', lowest first.  Returns (X, Y), the
    last iterate (X + iY) 2^-w.

    z is held as (X + iY) 2^-w; p(z) and p'(z) come from `_fixed_horner`,
    and dz from one Gaussian division rounded to nearest.  The iteration
    stops once |dz| <= 2^(8-w) (1 + |z|), decided on integers, or after
    `steps` steps; it raises ZeroDivisionError when p'(z) evaluates to 0.
    Its error is absolute, about 2^-w, the kind the absolute radius of
    `_certify_boxes` needs whatever the size of the roots.  It only moves
    the center: `_certify_boxes` then bounds the distance from the returned
    center to a root exactly, so no rounding here can weaken a certificate.

    >>> w = 256
    >>> x, y = _newton([-2, 0, 1], [0, 2], (3, 0, 1), w, 16)  # from 3/2
    >>> with workprec(2 * w):
    ...     print(y == 0 and abs(mpmath.ldexp(x, -w) - mpmath.sqrt(2)) <= mpf(2) ** (8 - w))
    True
    """
    x, y, s = start
    if s <= w:
        x, y = x << (w - s), y << (w - s)
    else:
        x, y = x >> (s - w), y >> (s - w)
    for _ in range(steps):
        gr, gi = _fixed_horner(coeffs, x, y, w)
        pr, pi = _fixed_horner(deriv, x, y, w)
        den = pr * pr + pi * pi
        if not den:
            raise ZeroDivisionError("p'(z) = 0")
        # dz 2^w = p(z) conj(p'(z)) 2^w / |p'(z)|^2, rounded to nearest
        dx = (((gr * pr + gi * pi) << (w + 1)) + den) // (2 * den)
        dy = (((gi * pr - gr * pi) << (w + 1)) + den) // (2 * den)
        x, y = x - dx, y - dy
        # |dz| <= 2^(8-w) (1 + |z|) is 2^(w-8) sqrt(a) <= 2^w + sqrt(b) for
        # a = dX^2 + dY^2, b = X^2 + Y^2; squared, it is excess <= 2^(w+1) sqrt(b)
        b = x * x + y * y
        excess = ((dx * dx + dy * dy) << (2 * w - 16)) - (1 << (2 * w)) - b
        if excess <= 0 or excess * excess <= b << (2 * w + 2):
            break
    return x, y


def _abs_poly_bounds(coeffs, x: int, y: int, s: int):
    """Lower and upper bounds of |p(z)| and of |p'(z)| at z = (x + iy) 2^-s
    (s >= 0) for integer coefficients (lowest first), each modulus rounded
    once to 53 bits: ((lo, hi), (lo', hi')) as dyadics (m, e) = m 2^e.

    G = 2^(sn) p(z) and G' = 2^(s(n-1)) p'(z) are Gaussian integers,
    computed exactly by one Horner pass on Z = x + iy: B_n = c_n, C_n = 0,
    B_j = B_(j+1) Z + c_j 2^(s(n-j)) and C_j = C_(j+1) Z + B_(j+1) give
    G = B_0 and G' = C_0.  |p(z)| = sqrt(Re G^2 + Im G^2) 2^-(sn), and
    |p'(z)| likewise, are then bounded by `sqrt_bounds` with no further
    error.

    >>> value, slope = _abs_poly_bounds([-3, 0, 1], 1, 0, 1)  # z = 1/2
    >>> [m * 2.0**e for m, e in value + slope]  # |0.25 - 3| and |2z|, exact
    [2.75, 2.75, 1.0, 1.0]
    >>> ((lo, e), (hi, f)), _ = _abs_poly_bounds([-2, 0, 1], 1, 1, 0)  # |2i - 2|
    >>> lo * lo < 8 * 4**-e and hi * hi > 8 * 4**-f, hi - lo, e == f == -51
    (True, 1, True)
    """
    n = len(coeffs) - 1
    re, im = int(coeffs[n]), 0
    dre = dim = 0
    for j in range(n - 1, -1, -1):
        dre, dim = dre * x - dim * y + re, dre * y + dim * x + im
        re, im = re * x - im * y + (int(coeffs[j]) << (s * (n - j))), re * y + im * x
    return sqrt_bounds(re * re + im * im, -s * n), sqrt_bounds(dre * dre + dim * dim, s - s * n)


def _certify_boxes(g: IntPoly, approx, radius_bits: int) -> tuple[Ball, ...]:
    """Newton-refine the centers of the balls approx, fixed starting points,
    and certify disjoint disks with radii <= 2^-radius_bits.

    The radius bound is the classical nearest-root estimate: g'(c)/g(c) is
    the sum of 1/(c - x_k), so some root lies within d*|g(c)/g'(c)| of c.
    The center c = (X + iY) 2^-w is Newton's fixed-point iterate, so g(c)
    and g'(c) are evaluated exactly (`_abs_poly_bounds`): |g(c)| rounded up
    and |g'(c)| rounded down to 53 bits, then d*|g(c)| and the quotient each
    rounded up, give a radius at least d*|g(c)/g'(c)| with no ball padding.
    With d pairwise disjoint disks (`Ball.disjoint_from`, exact) each
    containing a root, every disk contains exactly one and together they
    exhaust the roots.

    The certificate never trusts Newton (`_newton`, fixed point at the
    working precision): it holds at whatever center Newton returns, and a
    center that Newton left far from its root only fails the radius bound.
    """
    d = g.degree
    work = 2 * radius_bits + 16 * d + 96
    deriv = g.derivative_coeffs()
    steps = int(math.log2(max(radius_bits, 64))) + 8
    centers = [_newton(g.coeffs, deriv, b.dyadic_center, work, steps) for b in approx]
    boxes = []
    for x, y in centers:
        (_, high), (low, _) = _abs_poly_bounds(g.coeffs, x, y, work)
        if not low[0]:
            raise _CertificationFailed
        m, e = div_up(mul_up((d, 0), high), low)
        k = e + radius_bits  # the radius m 2^e must be <= 2^-radius_bits
        if m > (1 >> k if k >= 0 else 1 << -k):
            raise _CertificationFailed
        boxes.append(Ball.from_dyadic(x, y, work, (m, e)))
    for i in range(d):
        for j in range(i + 1, d):
            if not boxes[i].disjoint_from(boxes[j]):
                raise _CertificationFailed
    return tuple(boxes)


@lru_cache(maxsize=None)
def _boxes_at(g: IntPoly, radius_bits: int) -> tuple[Ball, ...]:
    """Certified boxes in base order with radii <= 2^-radius_bits: the base
    up to its radius, else Newton-refined from the base centers, a radius
    that fails to certify being retried at twice the bits."""
    if radius_bits > PRECISION_CAP_BITS:
        raise PrecisionExhausted("root refinement beyond the precision cap")
    base = _stable_base(g)
    if radius_bits <= _base_bits(g):
        return base
    bits = radius_bits
    while bits <= PRECISION_CAP_BITS:
        try:
            return _certify_boxes(g, base, bits)
        except _CertificationFailed:
            bits *= 2
    raise PrecisionExhausted("cannot certify disjoint root boxes")


def _box_levels(g: IntPoly):
    """(bits, boxes) with radii <= 2^-bits for bits = B, 2B, ... up to the
    precision cap, from the base radius 2^-B: the one refinement ladder of
    every search that waits for the boxes to separate."""
    bits = _base_bits(g)
    while bits <= PRECISION_CAP_BITS:
        yield bits, _boxes_at(g, bits)
        bits *= 2


def _partners(boxes, image, is_root=None) -> list[int | None] | None:
    """For each i, the index j of the one box that image(box_i) meets: the
    one root-map search.  An entry is None when image(box_i) meets no box or
    is_root(i, j) fails; the result is None while some image meets two
    boxes.  `disjoint_from` is exact, so a met box is met by the closed
    disks.

    Conjugation (image = Ball.conjugate) needs no is_root, and its partners
    are an involution with no None entry: the d boxes are disjoint, each
    holds exactly one root, and conj(x_i), itself a root (integer
    coefficients), lies in the mirror of box i.  So the one box j that the
    mirror meets is the box of conj(x_i), and then conj(x_j) = x_i lies in
    box i and in the mirror of box j, so j's partner is i.
    """
    partners = []
    for i, box in enumerate(boxes):
        target = image(box)
        hits = [j for j, other in enumerate(boxes) if not target.disjoint_from(other)]
        if len(hits) > 1:
            return None
        j = hits[0] if hits else None
        if j is not None and is_root is not None and not is_root(i, j):
            j = None
        partners.append(j)
    return partners


def _real_parts_equal(g, i, j, pi, degree_bound) -> bool:
    """Certified Re(x_i) = Re(x_j), via the algebraic integer
    x_i + x_{pi(i)} - x_j - x_{pi(j)} = 2(Re x_i - Re x_j)."""
    alpha = [0] * g.degree
    alpha[i] += 1
    alpha[pi[i]] += 1
    alpha[j] -= 1
    alpha[pi[j]] -= 1
    # alpha = 0 when x_j = conj(x_i), which _zero_test answers at once
    enclose = _sum_enclosure(alpha, functools.partial(_boxes_at, g))
    return _zero_test(alpha, degree_bound, enclose)


def _try_order(g, boxes, pi, degree_bound):
    """The permutation listing the roots by (Re, Im), or None while the boxes
    are too coarse to decide some pair.  Each pair is decided once, and the
    certified decisions form a strict total order, so the root with k
    predecessors sorts k-th."""
    d = len(boxes)
    predecessors = [0] * d
    # `left_of` and `below` compare the disks' interval ends exactly
    for i in range(d):
        for j in range(i + 1, d):
            if boxes[i].left_of(boxes[j]):
                first = i
            elif boxes[j].left_of(boxes[i]):
                first = j
            elif not _real_parts_equal(g, i, j, pi, degree_bound):
                return None  # Re provably differ but intervals still overlap
            elif boxes[i].below(boxes[j]):
                first = i
            elif boxes[j].below(boxes[i]):
                first = j
            else:
                return None  # equal Re, Im intervals not yet separated
            predecessors[i + j - first] += 1
    return tuple(sorted(range(d), key=predecessors.__getitem__))


@lru_cache(maxsize=None)
def _order_map(g: IntPoly) -> tuple[int, ...]:
    """Permutation sending sorted positions to base indices, certified."""
    degree_bound = _degree_bound(g, None)
    for _, boxes in _box_levels(g):
        pi = _partners(boxes, Ball.conjugate)
        order = None if pi is None else _try_order(g, boxes, pi, degree_bound)
        if order is not None:
            return order
    raise PrecisionExhausted("cannot certify the lexicographic root order")


def _sorted_boxes(g: IntPoly, bits: int) -> list[Ball]:
    """The root boxes of g sorted by (Re, Im), radii <= 2^-bits."""
    boxes = _boxes_at(g, bits)
    return [boxes[i] for i in _order_map(g)]


def certified_complex_roots(g: IntPoly, precision_bits: int) -> CertifiedBoxList:
    """All d roots of g as certified disjoint boxes, radii <= 2^(-precision_bits/2)
    (the base's below 256 bits), sorted by (Re, Im) of the true roots."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    return CertifiedBoxList(g, precision_bits, tuple(_sorted_boxes(g, precision_bits // 2 + 1)))


# ---------------------------------------------------------------------------
# certified zero tests


def _zero_test(alpha, degree_bound, enclose) -> bool:
    """Certified test that gamma = 0, for the gamma that enclose describes.

    enclose(bits, D) encloses gamma in a ball, from root boxes with radii
    <= 2^-bits, and returns it with a lower bound L = 1 / (base^n tail) on
    |gamma| valid for a nonzero gamma with at most D conjugates, as
    (ball, base, n, tail) with dyadics base, tail >= 1 given as (m, e)
    (`_sum_enclosure`, `_product_enclosure`).  Each gamma is built from
    values at the roots that the Galois group of g's splitting field
    permutes, except that an entry may be fixed (the 1 of `index_relations`):
    sigma moves the value at root i to the value at root s(i) for one
    permutation s fixing such entries, so each conjugate of gamma is gamma's
    expression in a rearrangement of alpha, and gamma has at most
    D = min(degree_bound, orbit(alpha)) conjugates.  A ball excluding 0
    decides False; a ball inside |z| < L/2 decides True.  The first level
    is 128 bits, which the base serves (`_boxes_at`).  Otherwise the
    boxes are refined to max(2 * bits, 64 - log2 L) bits, or to 2 * bits
    when a ball still meets 0 where a value must be inverted.  Both
    decisions are exact on integers (`Ball.abs_bounds`,
    `below_half_inverse`).  D only sets where refinement may stop; for the
    all-ones vector D = 1, and a sum is decided at the first level.
    """
    if not any(alpha):
        return True
    degree_bound = min(degree_bound, _orbit_size(alpha))
    bits = 128
    while bits <= PRECISION_CAP_BITS:
        with workprec(2 * bits + 64):
            try:
                ball, base, n, tail = enclose(bits, degree_bound)
            except ZeroDivisionError:
                needed = 2 * bits
            else:
                lower, upper = ball.abs_bounds()
                if lower[0]:
                    return False
                below, log2_inverse = below_half_inverse(upper, base, n, tail)
                if below:
                    return True
                needed = log2_inverse + 64
        bits = max(2 * bits, needed)
    raise PrecisionExhausted(
        f"zero test undecided below {PRECISION_CAP_BITS} bits (alpha={list(alpha)})"
    )


def _sum_enclosure(alpha, make_balls):
    """enclose(bits, D) of `_zero_test` for gamma = sum(alpha_i * y_i), with
    algebraic integers y_i enclosed by make_balls(bits).

    Every conjugate of a y_i is a y_j, or the y_i itself when it is fixed,
    so M = max(1, max |y_i|) bounds them all and each conjugate of gamma has
    absolute value <= ||alpha||_1 * M.  A nonzero gamma is an algebraic
    integer whose norm is a nonzero rational integer and a product of at
    most D conjugates, so |gamma| >= (||alpha||_1 * M)^-(D - 1), with M the
    largest 53-bit upper bound of the |y_i| and ||alpha||_1 * M exact.
    """
    a1 = sum(abs(int(a)) for a in alpha)

    def enclose(bits, degree_bound):
        balls = make_balls(bits)
        m, e = _largest([ONE] + [b.abs_bounds()[1] for b in balls])
        gamma = ball_sum(b * int(a) for a, b in zip(alpha, balls) if a)
        return gamma, (a1 * m, e), degree_bound - 1, ONE

    return enclose


def _scaled(values) -> list[int]:
    """Dyadics (m, e) as the integers m 2^(e - E) on one scale 2^E, so that
    they add and compare exactly."""
    low = min(e for _, e in values)
    return [m << (e - low) for m, e in values]


def _largest(values):
    """The largest of some dyadics, compared exactly."""
    scaled = _scaled(values)
    return values[max(range(len(values)), key=scaled.__getitem__)]


def gamma_is_zero(
    alpha, roots: CertifiedBoxList, degree_bound: int | None = None
) -> bool:
    """Certified test of sum(alpha_i * x_i) = 0 over the boxed roots."""
    g = roots.poly
    if len(alpha) != g.degree:
        raise ValueError("alpha must have one entry per root")
    degree_bound = _degree_bound(g, degree_bound)
    enclose = _sum_enclosure(alpha, functools.partial(_sorted_boxes, g))
    return _zero_test(alpha, degree_bound, enclose)


# ---------------------------------------------------------------------------
# relation modules


# the certificate's fields, in JSON order, with their JSON types
_CERTIFICATE = {"precision_bits": int, "degree_bound": int, "coeff_cap": int,
                "stable_doublings": int, "cap_reached": bool}


@dataclass(frozen=True)
class RelationModule:
    """Sublattice of Z^d in row Hermite normal form, with its certificate."""

    ambient_rank: int
    basis: tuple[tuple[int, ...], ...]
    kind: str
    certificate: dict = field(compare=False, hash=False, default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, alpha) -> bool:
        if len(alpha) != self.ambient_rank:
            raise ValueError("vector has the wrong length")
        return lattice.in_lattice([list(r) for r in self.basis], list(alpha))

    def to_json_dict(self) -> dict:
        """The whole record: d, basis, the certificate, kind."""
        return {
            "d": self.ambient_rank,
            "basis": [list(row) for row in self.basis],
            **self.certificate,
            "kind": self.kind,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelationModule":
        """The module whose to_json_dict is data; ValueError for a field of the
        wrong JSON type, a row that is not d ints, or a basis not in HNF."""
        for key, json_type in {"d": int, "basis": list, **_CERTIFICATE, "kind": str}.items():
            if type(data[key]) is not json_type:
                raise ValueError(f"{key} is not a JSON {json_type.__name__}")
        d, rows = data["d"], data["basis"]
        if any(type(row) is not list or len(row) != d or any(type(x) is not int for x in row)
               for row in rows):
            raise ValueError(f"a basis row is not a list of {d} integers")
        if rows != lattice.hnf_rows(rows):
            raise ValueError("basis is not in row Hermite normal form")
        return cls(d, tuple(map(tuple, rows)), data["kind"], {k: data[k] for k in _CERTIFICATE})


def _detect_module(dim, kind, columns, certify, coeff_cap, degree_bound, saturate=True):
    """LLL-detect, certify, saturate; accept after two stable doublings, and
    return the RelationModule with its certificate.

    columns(bits) lists the real values of each row; rows past dim (the
    multiplicative winding row) add coordinates that are not reported.  Row
    k is e_k followed by its values scaled by 2^bits and rounded, all at
    workprec(4 bits + 128); no other code builds LLL rows.  certify(alpha)
    runs the zero tests, bounded by degree_bound, that the certificate
    records.  Saturation is sound only for kernels of maps into torsion-free
    groups (the additive kinds); multiplicative relation lattices may be
    strictly smaller than their saturation, so those callers disable it.
    """
    bits = _DETECTION_START_BITS
    prev = None
    agreements = 0
    capped = False
    while bits <= _DETECTION_CAP_BITS:
        with workprec(4 * bits + 128):
            values = columns(bits)
            scale = mpf(2) ** bits
            rows = [
                [int(j == k) for j in range(len(values))]
                + [int(mpmath.nint(mpf(x) * scale)) for x in row]
                for k, row in enumerate(values)
            ]
        candidates = {tuple(row[:dim]) for row in lattice.lll_rows(rows)}
        certified = []
        for cand in sorted(candidates):
            if not any(cand):
                continue
            if max(abs(c) for c in cand) > coeff_cap:
                capped = True
                continue
            if certify(list(cand)):
                certified.append(list(cand))
        if saturate:
            basis = lattice.saturate_rows(certified) if certified else []
        else:
            basis = lattice.hnf_rows(certified)
        # integer combinations of relations are relations, so HNF rows must
        # certify; saturation additionally relies on torsion-freeness
        for row in basis:
            if not certify(row):
                raise RuntimeError(f"basis reduction left the certified module: {row}")
        key = tuple(tuple(r) for r in basis)
        agreements = agreements + 1 if key == prev else 0
        prev = key
        if agreements >= _STABLE_DOUBLINGS:
            return RelationModule(dim, key, kind, {
                "precision_bits": bits,
                "degree_bound": degree_bound,
                "coeff_cap": coeff_cap,
                "stable_doublings": _STABLE_DOUBLINGS,
                "cap_reached": capped,
            })
        bits *= 2
    raise PrecisionExhausted("relation detection did not stabilize")


def _row_test(g, v, exponents, kind, degree_bound):
    """(factories, certify) of a kind: certify(alpha) decides by zero tests,
    bounded by degree_bound, prod v(x_i)^alpha_i = 1 (multiplicative, no
    factories) or sum alpha_i y_i = 0 for the algebraic integers y_i of each
    factory mk(bits), a list the Galois action permutes (module docstring)."""
    if kind == "multiplicative":
        return [], lambda alpha: _zero_test(alpha, degree_bound, _product_enclosure(g, v, alpha))
    if kind == "additive":
        factories = [functools.partial(_sorted_boxes, g)]
    elif kind == "index":
        factories = [lambda bits: _sorted_boxes(g, bits) + [Ball(1)]]
    else:
        values = [v] if kind == "value" else map(LaurentPoly.monomial, exponents)
        factories = [_integral_value_balls(g, w) for w in values]

    def certify(alpha):
        return all(_zero_test(alpha, degree_bound, _sum_enclosure(alpha, mk)) for mk in factories)

    return factories, certify


def _linear_relations(g, v, exponents, kind, coeff_cap, degree_bound) -> RelationModule:
    """HNF basis of {alpha : sum alpha_i y_i = 0 for every factory of
    `_row_test`}, each factory adding one (Re, Im) column pair to the
    detection.  degree_bound defaults to d! with d = deg g."""
    degree_bound = _degree_bound(g, degree_bound)
    coeff_cap = _coeff_cap(coeff_cap)
    factories, certify = _row_test(g, v, exponents, kind, degree_bound)

    def columns(bits):
        enclosed = zip(*(mk(2 * bits + 32) for mk in factories))
        return [[x for b in balls for x in (b.center.real, b.center.imag)] for balls in enclosed]

    dim = g.degree + (kind == "index")
    return _detect_module(dim, kind, columns, certify, coeff_cap, degree_bound)


def check_cached_module(module, g, v, exponents, kind, degree_bound) -> None:
    """ValueError unless module has this kind and length, each basis row
    passes the row test detection runs (`_row_test`) at degree_bound, and a
    linear kind's basis is saturated.  So a wrong relation or a multiple of
    one is caught; a dropped relation, such as an emptied basis, is not."""
    dim = g.degree + (kind == "index")
    if (module.ambient_rank, module.kind) != (dim, kind):
        raise ValueError(f"it holds a {module.kind} module of d = {module.ambient_rank}")
    _, certify = _row_test(g, v, exponents, kind, _degree_bound(g, degree_bound))
    rows = [list(row) for row in module.basis]
    for row in rows:
        if not certify(row):
            raise ValueError(f"basis row {row} is not a {kind} relation")
    if kind != "multiplicative" and lattice.saturate_rows(rows) != rows:
        raise ValueError("basis is not saturated")


@lru_cache(maxsize=None)
def additive_relations(
    g: IntPoly,
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """HNF basis of {alpha in Z^d : sum alpha_i x_i = 0}, roots in box order."""
    return _linear_relations(g, None, None, "additive", coeff_cap, degree_bound)


def _integral_value_balls(g: IntPoly, v: LaurentPoly):
    """Ball factory for y_i = c * v(x_i), c = ((-1)^d g(0))^e with
    e = max(0, -min exponent): y_i = (X^e v)(x_i) * prod_{j!=i} x_j^e is an
    algebraic integer and the list (y_i) is permuted by the Galois action,
    so max_i |y_i| bounds every conjugate of every y_i.  The value, joint
    and multiplicative kinds all start here, so this is where a negative
    exponent at a root 0 is refused."""
    if v.min_exp < 0 and g.coeffs[0] == 0:
        raise ZeroRootWithNegativeExponent(f"{v} has negative exponents but 0 is a root of g")
    e, _ = v.integralized()
    clear = ((-1) ** g.degree * g.coeffs[0]) ** e

    def mk(bits):
        return [eval_laurent_ball(v.terms, b) * clear for b in _sorted_boxes(g, bits)]

    return mk


@lru_cache(maxsize=None)
def value_relations(
    g: IntPoly,
    v: LaurentPoly,
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """HNF basis of {alpha : sum alpha_i v(x_i) = 0}."""
    if v.is_constant:
        raise OutOfRangeParameter("v must be nonconstant")
    return _linear_relations(g, v, None, "value", coeff_cap, degree_bound)


@lru_cache(maxsize=None)
def joint_power_relations(
    g: IntPoly,
    exponents: tuple[int, ...],
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """HNF basis of {alpha : sum alpha_j x_j^m = 0 for every m in exponents}:
    one detection over the stacked (Re, Im) columns of the x^m (x^0 gives
    (1, 0)), certified by the zero test of every exponent."""
    exponents = tuple(int(m) for m in exponents)
    if not exponents or len(set(exponents)) != len(exponents):
        raise OutOfRangeParameter("exponents must be a nonempty distinct list")
    return _linear_relations(g, None, exponents, "joint", coeff_cap, degree_bound)


@lru_cache(maxsize=None)
def multiplicative_relations(
    g: IntPoly,
    v: LaurentPoly,
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """HNF basis of {alpha : prod v(x_i)^alpha_i = 1}.

    Detection adds one extra lattice row carrying 2*pi so that a winding
    integer can absorb argument wrap-arounds; the winding coordinate is not
    part of the reported vectors.
    """
    d = g.degree
    degree_bound = _degree_bound(g, degree_bound)
    coeff_cap = _coeff_cap(coeff_cap)

    # reject v vanishing at a root (certified, using the integralized values)
    _, is_zero = _row_test(g, v, None, "value", degree_bound)
    for i in range(d):
        if is_zero([int(j == i) for j in range(d)]):
            raise VanishingValue(f"v vanishes at root #{i} of g")

    def columns(bits):
        values = [eval_laurent_ball(v.terms, b).center for b in _sorted_boxes(g, 2 * bits + 32)]
        return [[mpmath.log(abs(c)), mpmath.arg(c)] for c in values] + [[0, 2 * mpmath.pi]]

    _, certify = _row_test(g, v, None, "multiplicative", degree_bound)
    return _detect_module(d, "multiplicative", columns, certify, coeff_cap, degree_bound,
                          saturate=False)


def _product_enclosure(g, v, alpha):
    """enclose(bits, D) of `_zero_test` for beta - 1, beta = prod v(x_i)^alpha_i.

    Write e = e_shift, u_i = (X^e v)(x_i), t_i = x_i; then
    beta = prod u_i^a_i * prod t_i^(-e a_i) is a power product of nonzero
    algebraic integers with total exponent mass C = (1+e)*||alpha||_1.  Let
    P be the product of the factors appearing with negative exponents; when
    beta != 1, P*(beta-1) is a nonzero algebraic integer whose conjugates
    are bounded by M^C * (1 + M^C) where
    M = max_i max(|u_i|, |u_i|^-1, |t_i|, |t_i|^-1, 1) over all conjugates
    (the Galois action permutes the u's and the t's), so a nonzero rational
    integer norm forces
        |beta - 1| >= (M^C * (1 + M^C))^-(D-1) * M^-C,
    which stays a lower bound with M^C and M^C * (1 + M^C) rounded up.
    A Galois element moves u_i to u_{s(i)} and t_i to t_{s(i)} by one
    permutation s, so P*(beta-1) has at most orbit(alpha) conjugates.  For
    polynomial v (e = 0) this is the plain bound with M = M_v.
    """
    e_shift, vt = v.integralized()
    cc = sum(abs(int(a)) for a in alpha) * (1 + e_shift)

    def enclose(bits, degree_bound):
        boxes = _sorted_boxes(g, bits)
        factors = [eval_poly_ball(vt, b) for b in boxes]
        if e_shift:
            factors += boxes
        bounds = [ONE]
        for b in factors:
            lo, hi = b.abs_bounds()
            if not lo[0]:
                raise ZeroDivisionError
            bounds += [hi, div_up(ONE, lo)]
        mc = power_bounds(_largest(bounds), cc)[1]
        beta = Ball(1)
        for a, b in zip(alpha, boxes):
            if a:
                beta = beta * eval_laurent_ball(v.terms, b).power(int(a))
        return beta - Ball(1), mul_up(mc, add_up(ONE, mc)), degree_bound - 1, mc

    return enclose


@lru_cache(maxsize=None)
def index_relations(
    g: IntPoly, coeff_cap: int = DEFAULT_COEFF_CAP, degree_bound: int | None = None
) -> RelationModule:
    """HNF basis of {alpha in Z^(d+1) : sum alpha_i x_i + alpha_(d+1) = 0}, the
    additive relation module of the augmented value list (x_1, ..., x_d, 1)."""
    return _linear_relations(g, None, None, "index", coeff_cap, degree_bound)


def index_ind(
    g: IntPoly, coeff_cap: int = DEFAULT_COEFF_CAP, degree_bound: int | None = None
) -> int:
    """ind(g): nonnegative generator of the integers of the form sum alpha_i x_i.

    A relation sum alpha_i x_i + c = 0 of `index_relations` exhibits -c as
    an attained integer, and the set of attained integers is the gcd ideal
    of the basis' last coordinates (math.gcd ignores signs and zeros, and
    is 0 for none).
    """
    return math.gcd(*(row[-1] for row in index_relations(g, coeff_cap, degree_bound).basis))


def dominant_root_holds(g: IntPoly, degree_bound: int | None = None) -> bool:
    """True iff some root satisfies |x0| > sum of the other |x|, certified.

    Exact modulus ties are recognized through the conjugation and negation
    symmetries (the sources of equal moduli in the irreducible inputs this
    criterion is stated for).  When every root is real, |x0| - sum |x_j| is
    the linear form sum(e_j x_j) with e_j = +-1 from the certified signs, and
    one certified zero test decides whether it ties.  The answer is False as
    soon as up_i < sum_{j != i} lo_j for every i (certified bounds of |x|,
    summed exactly): |x_i| <= up_i < sum lo_j <= sum |x_j|.  Any other tie
    (with non-real roots) exhausts the precision cap: PrecisionExhausted.
    """
    d = g.degree
    if d < 2:
        raise ValueError("dominant root criterion needs degree >= 2")
    degree_bound = _degree_bound(g, degree_bound)
    negates = _negates(d, functools.partial(_boxes_at, g), degree_bound)
    real_tie_tested = False
    for bits, boxes in _box_levels(g):
        # the bounds of |x|, on one scale, add and compare exactly
        bounds = [b.abs_bounds() for b in boxes]
        scaled = _scaled([lo for lo, _ in bounds] + [up for _, up in bounds])
        los, ups = scaled[:d], scaled[d:]
        lo_sum = sum(los)
        if all(up + lo < lo_sum for up, lo in zip(ups, los)):
            return False
        pi = _partners(boxes, Ball.conjugate)
        neg = _partners(boxes, Ball.__neg__, negates)
        if pi is None or neg is None:
            continue
        # conjugation and negation commute, so the class of root i is its
        # orbit {i, pi(i), neg(i), pi(neg(i))}, listed once from its least index
        reps = []
        for i in range(d):
            cl = {i, pi[i]} if neg[i] is None else {i, pi[i], neg[i], pi[neg[i]]}
            if min(cl) == i:
                reps.append(sorted(cl))
        top = max(reps, key=lambda cl: ups[cl[0]])
        others = [cl for cl in reps if cl is not top]
        if any(ups[cl[0]] >= los[top[0]] for cl in others):
            continue
        if len(top) >= 2:
            return False  # two roots share the maximal modulus exactly
        x0 = top[0]
        rest_up = sum(ups) - ups[x0]
        rest_lo = lo_sum - los[x0]
        if los[x0] > rest_up:
            return True
        if ups[x0] < rest_lo:
            return False
        signs = _real_root_signs(g, boxes) if pi == list(range(d)) else None
        if signs is not None and not real_tie_tested:
            alpha = [e if j == x0 else -e for j, e in enumerate(signs)]
            enclose = _sum_enclosure(alpha, functools.partial(_boxes_at, g))
            if _zero_test(alpha, degree_bound, enclose):
                return False  # |x0| equals the sum of the other moduli exactly
            real_tie_tested = True
    raise PrecisionExhausted("dominant root comparison is a genuine tie")


_ORIGIN = Ball(0)


def _real_root_signs(g, boxes) -> list[int] | None:
    """Certified sign of each real root (0 for an exact root 0), or None while
    a box of a nonzero root still meets the imaginary axis.

    A real root lies within its box's radius of the center's real part, so
    a box wholly left or right of 0 fixes its sign; the root 0 (when
    g(0) = 0) leaves exactly one box undecided.
    """
    signs = [1 if _ORIGIN.left_of(b) else -1 if b.left_of(_ORIGIN) else 0 for b in boxes]
    if signs.count(0) != (g.coeffs[0] == 0):
        return None
    return signs


def _negates(d, make_boxes, degree_bound):
    """is_root(i, j) of `_partners` for x -> -x: the certified zero test of
    x_i + x_j, over the d roots that make_boxes encloses."""

    def is_root(i, j):
        alpha = [(k == i) + (k == j) for k in range(d)]  # 2 at a root 0
        return _zero_test(alpha, degree_bound, _sum_enclosure(alpha, make_boxes))

    return is_root


def negation_pairing(g: IntPoly, degree_bound: int | None = None):
    """(pairs, unpaired) of sorted-root indices under x -> -x, certified."""
    degree_bound = _degree_bound(g, degree_bound)
    make_boxes = functools.partial(_sorted_boxes, g)
    negates = _negates(g.degree, make_boxes, degree_bound)
    for bits, _ in _box_levels(g):
        neg = _partners(make_boxes(bits), Ball.__neg__, negates)
        if neg is not None:
            if any(j == k for k, j in enumerate(neg)):
                raise ZeroRoot("0 is a root of g")
            pairs = [(k, j) for k, j in enumerate(neg) if j is not None and k < j]
            return pairs, [k for k, j in enumerate(neg) if j is None]
    raise PrecisionExhausted("negation pairing undecided")
