"""Certified complex roots of g and the lattices of relations among them.

The additive, value and ind(g) lattices are one object, the kernel of
alpha -> sum alpha_i y_i for algebraic integers y_i, computed by one engine
(`_linear_relations`) from a ball factory enclosing the y_i: the sorted
roots x_i (`_sorted_root_balls`), the values v(x_i) scaled to algebraic
integers (`_integral_value_balls`), or the sorted roots with 1 appended
(`index_ind`).  The engine, like the multiplicative variant with its
log/arg columns and winding row, runs:

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
  3. saturate the certified sublattice (kernels of maps into torsion-free
     groups are saturated, so saturation never leaves the true module),
     re-certify the basis rows and reduce to row Hermite normal form;
  4. accept once the result is stable across two consecutive doublings of B.

Completeness is therefore asserted by stability, not by a proven height
bound; every reported basis vector is individually certified, and vectors
with sup-norm above the coefficient cap are simply not searched.  The
certificate attached to each module records all of this.  The root order,
the negation pairing and the dominant-root criterion decide their ties by
the same zero test, on boxes refined along one ladder (`_box_levels`).
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, fzero

from . import lattice
from .arith import IntPoly, LaurentPoly
from .balls import RADIUS_BITS, Ball, ball_sum, eval_laurent_ball, eval_poly_ball
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


def default_degree_bound(d: int) -> int:
    """d! is always a valid upper bound for [K_g : Q]."""
    return math.factorial(d)


def _degree_bound(g: IntPoly, degree_bound: int | None) -> int:
    """The user-asserted bound on [K_g : Q], or d! when it is None.

    A bound below 1 would turn the norm bound into a lower bound >= 1 and
    certify small nonzero values as 0, so it is rejected.
    """
    if degree_bound is None:
        return default_degree_bound(g.degree)
    if degree_bound < 1:
        raise OutOfRangeParameter(f"degree_bound must be >= 1, got {degree_bound}")
    return int(degree_bound)


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

    def balls(self) -> list[Ball]:
        return list(self.boxes)

    def centers(self) -> list[complex]:
        return [complex(b.center) for b in self.boxes]


def _eval_poly(coeffs, z):
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


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
    return tuple(mpmath.mpc(complex(r)) * 2**k for r in roots)


def _seeds(g: IntPoly):
    """Root approximations for _stable_base, cheapest first: the float seed,
    then mpmath.polyroots at 256, 512, ... bits up to the precision cap."""
    seed = _float_seed(g)
    if seed is not None:
        yield seed
    monic = [1] + [int(c) for c in reversed(g.coeffs[:-1])]
    prec = 256
    while prec <= PRECISION_CAP_BITS:
        try:
            with workprec(prec):
                roots = mpmath.polyroots(monic, maxsteps=400, extraprec=prec)
                seed = tuple(mpmath.mpc(r) for r in roots)
        except mpmath.libmp.NoConvergence:
            pass
        else:
            yield seed
        prec *= 2


@lru_cache(maxsize=None)
def _stable_base(g: IntPoly) -> tuple:
    """Root approximations anchoring the identity (index) of every root of g.

    The seeds of `_seeds` are tried in turn, and the first whose boxes
    `_certify_boxes` certifies wins.  A double-precision seed (Edelman and
    Murakami, Math. Comp. 64, 1995) is enough for most g; a cluster closer
    than its accuracy, or coefficients beyond the float range, fall through
    to mpmath.polyroots.  The base is the centers of the certified boxes,
    not the seed, so it lies within the certified radius of its root;
    every refinement Newton-iterates from these fixed starting points,
    needs a step or two, and indices never change between precisions.

    The radius is relative to the Cauchy bound 1 + max |c_i| on the roots,
    2^-(64 + bit_length(1 + max |c_i|)): the working precision of
    `_certify_boxes` grows with radius_bits, so it then grows with the size
    of the roots, which a fixed absolute radius would outgrow.
    """
    if g.degree == 1:
        return (mpmath.mpc(-g.coeffs[0]),)
    radius_bits = 64 + (1 + max(abs(c) for c in g.coeffs)).bit_length()
    for seed in _seeds(g):
        try:
            boxes = _certify_boxes(g, seed, radius_bits)
        except (_CertificationFailed, ZeroDivisionError):
            continue  # ZeroDivisionError: Newton met a critical point of g
        return tuple(b.center for b in boxes)
    raise PrecisionExhausted("cannot isolate the roots of g")


class _CertificationFailed(Exception):
    pass


def _newton(g: IntPoly, deriv, z, steps: int, tol):
    """Newton's iteration from z, stopped once |dz| <= tol * (1 + |z|) or
    after `steps` steps; it only moves the center, which is then certified."""
    for _ in range(steps):
        dz = g(z) / _eval_poly(deriv, z)
        z -= dz
        if abs(dz) <= tol * (1 + abs(z)):
            break
    return z


def _sqrt_bounds(n: int, shift: int) -> tuple:
    """sqrt(n) * 2^shift for an integer n >= 0, rounded down and up to 53
    bits, as raw mpfs.

    With 2t = bit_length(n) - 105 or - 106, q = isqrt(n / 4^t) has exactly
    53 bits (floor(sqrt(floor(x))) = floor(sqrt(x)), so n / 4^t may be
    truncated), and q * 2^t <= sqrt(n) <= (q + [q^2 4^t != n]) * 2^t are the
    directed roundings of sqrt(n) itself.
    """
    if n == 0:
        return fzero, fzero
    t = (n.bit_length() - 105) // 2
    m = n >> (2 * t) if t >= 0 else n << (-2 * t)
    q = math.isqrt(m)
    exact = (q * q << (2 * t)) == n if t >= 0 else q * q == m
    return from_man_exp(q, t + shift), from_man_exp(q if exact else q + 1, t + shift)


def _abs_poly_bounds(coeffs, z) -> tuple[mpf, mpf]:
    """Lower and upper bounds of |p(z)| for integer coefficients (lowest
    first) and a finite mpc z, each |p(z)| rounded once to 53 bits.

    z is dyadic, z = (X + iY) 2^-s with integers X, Y and s >= 0, so
    G = sum c_j (X + iY)^j 2^(s(n-j)) = 2^(sn) p(z) is a Gaussian integer,
    computed exactly by Horner; |p(z)| = sqrt(Re G^2 + Im G^2) 2^-(sn) is
    then bounded by `_sqrt_bounds` with no further error.

    >>> _abs_poly_bounds([-3, 0, 1], mpmath.mpc(0.5))  # |0.25 - 3|, exact
    (mpf('2.75'), mpf('2.75'))
    >>> lo, hi = _abs_poly_bounds([-2, 0, 1], mpmath.mpc(1, 1))  # |2i - 2|
    >>> with workprec(200):
    ...     print(lo < mpmath.sqrt(8) < hi, hi - lo == mpf(2) ** -51)
    True True
    """
    (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = z._mpc_
    if rbc < 0 or ibc < 0:
        raise ValueError("z must be finite")
    s = max(0, -rexp if rman else 0, -iexp if iman else 0)
    x = (-rman if rsign else rman) << (rexp + s)
    y = (-iman if isign else iman) << (iexp + s)
    n = len(coeffs) - 1
    re, im = int(coeffs[n]), 0
    for j in range(n - 1, -1, -1):
        re, im = re * x - im * y + (int(coeffs[j]) << (s * (n - j))), re * y + im * x
    lo, hi = _sqrt_bounds(re * re + im * im, -s * n)
    return mp.make_mpf(lo), mp.make_mpf(hi)


def _certify_boxes(g: IntPoly, approx, radius_bits: int) -> tuple[Ball, ...]:
    """Newton-refine fixed starting points and certify disjoint disks with
    radii <= 2^-radius_bits.

    The radius bound is the classical nearest-root estimate: g'(c)/g(c) is
    the sum of 1/(c - x_k), so some root lies within d*|g(c)/g'(c)| of c.
    The center c is dyadic, so g(c) and g'(c) are evaluated exactly
    (`_abs_poly_bounds`): |g(c)| rounded up and |g'(c)| rounded down to 53
    bits, then d*|g(c)| and the quotient each rounded up, give a radius at
    least d*|g(c)/g'(c)| with no ball padding.  With d pairwise disjoint
    disks each containing a root, every disk contains exactly one and
    together they exhaust the roots.
    """
    d = g.degree
    work = 2 * radius_bits + 16 * d + 96
    target = mpf(2) ** (-radius_bits)
    deriv = g.derivative_coeffs()
    steps = int(math.log2(max(radius_bits, 64))) + 8
    with workprec(work):
        tol = mpf(2) ** (8 - work)
        zs = [_newton(g, deriv, z, steps, tol) for z in approx]
    boxes = []
    for z in zs:
        low = _abs_poly_bounds(deriv, z)[0]
        if low <= 0:
            raise _CertificationFailed
        up = mpmath.fmul(d, _abs_poly_bounds(g.coeffs, z)[1], prec=RADIUS_BITS, rounding="u")
        boxes.append(Ball(z, mpmath.fdiv(up, low, prec=RADIUS_BITS, rounding="u")))
    if any(b.radius > target for b in boxes):
        raise _CertificationFailed
    for i in range(d):
        for j in range(i + 1, d):
            if not boxes[i].disjoint_from(boxes[j]):
                raise _CertificationFailed
    return tuple(boxes)


@lru_cache(maxsize=None)
def _boxes_at(g: IntPoly, radius_bits: int) -> tuple[Ball, ...]:
    """Certified boxes in base order with radii <= 2^-radius_bits."""
    if radius_bits > PRECISION_CAP_BITS:
        raise PrecisionExhausted("root refinement beyond the precision cap")
    base = _stable_base(g)
    bits = radius_bits
    while bits <= PRECISION_CAP_BITS:
        try:
            return _certify_boxes(g, base, bits)
        except _CertificationFailed:
            bits *= 2
    raise PrecisionExhausted("cannot certify disjoint root boxes")


def _box_levels(g: IntPoly):
    """(bits, boxes) with radii <= 2^-bits for bits = 128, 256, ... up to the
    precision cap: the one refinement ladder of every search that waits for
    the boxes to separate."""
    bits = 128
    while bits <= PRECISION_CAP_BITS:
        yield bits, _boxes_at(g, bits)
        bits *= 2


def _conjugation_pairing(boxes) -> list[int] | None:
    """pi with conj(x_i) = x_{pi(i)}, certified from box overlaps.

    conj(x_i) is itself a root (integer coefficients) and lies in the mirror
    of box i; if that mirror meets exactly one box the match is forced.
    Returns None while the boxes are too coarse.
    """
    d = len(boxes)
    pi = []
    for i in range(d):
        mirror = boxes[i].conjugate()
        hits = [j for j in range(d) if not mirror.disjoint_from(boxes[j])]
        if len(hits) != 1:
            return None
        pi.append(hits[0])
    if any(pi[pi[i]] != i for i in range(d)):
        return None
    return pi


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
    d = len(boxes)
    # interval ends are computed exactly, so the comparisons below are exact
    re_lo = [mpmath.fsub(b.center.real, b.radius, exact=True) for b in boxes]
    re_hi = [mpmath.fadd(b.center.real, b.radius, exact=True) for b in boxes]
    im_lo = [mpmath.fsub(b.center.imag, b.radius, exact=True) for b in boxes]
    im_hi = [mpmath.fadd(b.center.imag, b.radius, exact=True) for b in boxes]
    less: dict[tuple[int, int], bool] = {}
    for i in range(d):
        for j in range(i + 1, d):
            if re_hi[i] < re_lo[j]:
                less[i, j] = True
            elif re_hi[j] < re_lo[i]:
                less[i, j] = False
            elif _real_parts_equal(g, i, j, pi, degree_bound):
                if im_hi[i] < im_lo[j]:
                    less[i, j] = True
                elif im_hi[j] < im_lo[i]:
                    less[i, j] = False
                else:
                    return None  # equal Re, Im intervals not yet separated
            else:
                return None  # Re provably differ but intervals still overlap

    def cmp(i, j):
        if i == j:
            return 0
        flag = less[min(i, j), max(i, j)]
        if i < j:
            return -1 if flag else 1
        return 1 if flag else -1

    return tuple(sorted(range(d), key=functools.cmp_to_key(cmp)))


@lru_cache(maxsize=None)
def _order_map(g: IntPoly) -> tuple[int, ...]:
    """Permutation sending sorted positions to base indices, certified."""
    degree_bound = default_degree_bound(g.degree)
    for _, boxes in _box_levels(g):
        pi = _conjugation_pairing(boxes)
        order = None if pi is None else _try_order(g, boxes, pi, degree_bound)
        if order is not None:
            return order
    raise PrecisionExhausted("cannot certify the lexicographic root order")


def certified_complex_roots(g: IntPoly, precision_bits: int) -> CertifiedBoxList:
    """All d roots of g as certified disjoint boxes, radii <= 2^(-precision_bits/2),
    sorted lexicographically by (Re, Im) of the true roots."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    order = _order_map(g)
    boxes = _boxes_at(g, precision_bits // 2 + 1)
    return CertifiedBoxList(g, precision_bits, tuple(boxes[i] for i in order))


def _sorted_root_balls(g: IntPoly):
    """Ball factory for the roots of g in sorted order, radii <= 2^-bits."""
    order = _order_map(g)

    def mk(bits):
        boxes = _boxes_at(g, bits)
        return [boxes[i] for i in order]

    return mk


# ---------------------------------------------------------------------------
# certified zero tests


def _zero_test(alpha, degree_bound, enclose) -> bool:
    """Certified test that gamma = 0, for the gamma that enclose describes.

    enclose(bits, D) encloses gamma in a ball, from root boxes with radii
    <= 2^-bits, and returns it with a lower bound L on |gamma| valid for a
    nonzero gamma with at most D conjugates (`_sum_enclosure`,
    `_product_enclosure`).  Each gamma is built from values at the roots
    that the Galois group of g's splitting field permutes, except that an
    entry may be fixed (the constant 1 of `index_ind`): sigma moves the
    value at root i to the value at root s(i) for one permutation s fixing
    such entries, so each conjugate of gamma is gamma's expression in a
    rearrangement of alpha, and gamma has at most
    D = min(degree_bound, orbit(alpha)) conjugates.  A ball excluding 0
    decides False; a ball inside |z| < L/2 decides True.  Otherwise the
    boxes are refined to max(2 * bits, 64 - log2 L) bits, or to 2 * bits
    when a ball still meets 0 where a value must be inverted.  D only sets
    where refinement may stop; for the all-ones vector D = 1, and a sum is
    decided at the first level.
    """
    if not any(alpha):
        return True
    degree_bound = min(degree_bound, _orbit_size(alpha))
    bits = 192
    while bits <= PRECISION_CAP_BITS:
        with workprec(2 * bits + 64):
            try:
                ball, lbound = enclose(bits, degree_bound)
                if ball.abs_lower() > 0:
                    return False
                if ball.abs_upper() < lbound / 2:
                    return True
                needed = int(-mpmath.log(lbound, 2)) + 64
            except ZeroDivisionError:
                needed = 2 * bits
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
    most D conjugates, so |gamma| >= (||alpha||_1 * M)^-(D - 1).
    """
    a1 = sum(abs(int(a)) for a in alpha)

    def enclose(bits, degree_bound):
        balls = make_balls(bits)
        m = max([mpf(1)] + [b.abs_upper() for b in balls])
        lbound = mpf(2) ** (-(degree_bound - 1) * mpmath.log(a1 * m, 2))
        return ball_sum(b * int(a) for a, b in zip(alpha, balls) if a), lbound

    return enclose


def gamma_is_zero(
    alpha, roots: CertifiedBoxList, degree_bound: int | None = None
) -> bool:
    """Certified test of sum(alpha_i * x_i) = 0 over the boxed roots."""
    g = roots.poly
    if len(alpha) != g.degree:
        raise ValueError("alpha must have one entry per root")
    degree_bound = _degree_bound(g, degree_bound)
    return _zero_test(alpha, degree_bound, _sum_enclosure(alpha, _sorted_root_balls(g)))


# ---------------------------------------------------------------------------
# relation modules


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
        return {
            "d": self.ambient_rank,
            "basis": [list(row) for row in self.basis],
            "precision_bits": int(self.certificate.get("precision_bits", 0)),
            "kind": self.kind,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelationModule":
        d = int(data["d"])
        basis = tuple(tuple(int(x) for x in row) for row in data["basis"])
        if any(len(row) != d for row in basis):
            raise ValueError("basis row has the wrong length")
        return cls(
            ambient_rank=d,
            basis=basis,
            kind=str(data["kind"]),
            certificate={"precision_bits": int(data.get("precision_bits", 0))},
        )


def _round_scaled(x, scale_bits: int) -> int:
    return int(mpmath.nint(mpmath.mpf(x) * mpf(2) ** scale_bits))


def _detect_module(dim, build_rows, certify, coeff_cap, saturate=True):
    """LLL-detect, certify, saturate; accept after two stable doublings.

    Saturation is sound only for kernels of maps into torsion-free groups
    (the additive kinds); multiplicative relation lattices may be strictly
    smaller than their saturation, so those callers disable it.
    """
    bits = _DETECTION_START_BITS
    prev = None
    agreements = 0
    capped = False
    while bits <= _DETECTION_CAP_BITS:
        reduced = lattice.lll_rows(build_rows(bits))
        candidates = {tuple(int(x) for x in row[:dim]) for row in reduced}
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
            assert certify(row), "basis reduction left the certified module"
        key = tuple(tuple(r) for r in basis)
        agreements = agreements + 1 if key == prev else 0
        prev = key
        if agreements >= _STABLE_DOUBLINGS:
            return key, bits, capped
        bits *= 2
    raise PrecisionExhausted("relation detection did not stabilize")


def _certificate(bits, degree_bound, coeff_cap, capped) -> dict:
    return {
        "precision_bits": bits,
        "degree_bound": degree_bound,
        "coeff_cap": coeff_cap,
        "stable_doublings": _STABLE_DOUBLINGS,
        "cap_reached": capped,
        "lower_bound": "norm bound (||alpha||_1 * M)^-(min(degree_bound, orbit(alpha)) - 1)",
    }


def _ident(k, n):
    return [1 if t == k else 0 for t in range(n)]


def _linear_relations(g, mk, dim, kind, coeff_cap, degree_bound) -> RelationModule:
    """HNF basis of {alpha in Z^dim : sum alpha_i y_i = 0}, certified.

    mk(bits) encloses algebraic integers y_1..y_dim whose list is permuted by
    the Galois action of g's splitting field, so the largest |y_i| bounds
    every conjugate; degree_bound defaults to d! with d = deg g.
    """
    degree_bound = _degree_bound(g, degree_bound)

    def build(bits):
        with workprec(4 * bits + 128):
            return [
                _ident(k, dim)
                + [_round_scaled(b.center.real, bits), _round_scaled(b.center.imag, bits)]
                for k, b in enumerate(mk(2 * bits + 32))
            ]

    def certify(alpha):
        return _zero_test(alpha, degree_bound, _sum_enclosure(alpha, mk))

    basis, bits, capped = _detect_module(dim, build, certify, coeff_cap)
    return RelationModule(
        dim, basis, kind, _certificate(bits, degree_bound, coeff_cap, capped)
    )


@lru_cache(maxsize=None)
def additive_relations(
    g: IntPoly,
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """HNF basis of {alpha in Z^d : sum alpha_i x_i = 0}, roots in box order."""
    return _linear_relations(
        g, _sorted_root_balls(g), g.degree, "additive", coeff_cap, degree_bound
    )


def _integral_value_balls(g: IntPoly, v: LaurentPoly):
    """Ball factory for y_i = c * v(x_i), c = ((-1)^d g(0))^e with
    e = max(0, -min exponent): y_i = (X^e v)(x_i) * prod_{j!=i} x_j^e is an
    algebraic integer and the list (y_i) is permuted by the Galois action,
    so max_i |y_i| bounds every conjugate of every y_i."""
    e, _ = v.integralized()
    clear = ((-1) ** g.degree * g.coeffs[0]) ** e
    order = _order_map(g)

    def mk(bits):
        boxes = _boxes_at(g, bits)
        return [eval_laurent_ball(v.terms, boxes[i]) * clear for i in order]

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
        raise ValueError("v must be nonconstant")
    if v.min_exp < 0 and g.coeffs[0] == 0:
        raise ZeroRootWithNegativeExponent(
            "v has negative exponents but 0 is a root of g"
        )
    return _linear_relations(
        g, _integral_value_balls(g, v), g.degree, "value", coeff_cap, degree_bound
    )


@lru_cache(maxsize=None)
def joint_power_relations(
    g: IntPoly,
    exponents: tuple[int, ...],
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> RelationModule:
    """Intersection over i of {alpha : sum alpha_j x_j^(m_i) = 0}."""
    exponents = tuple(int(m) for m in exponents)
    if not exponents:
        raise ValueError("need at least one exponent")
    if len(set(exponents)) != len(exponents):
        raise ValueError("exponents must be distinct")
    if any(m < 0 for m in exponents) and g.coeffs[0] == 0:
        raise ZeroRootWithNegativeExponent("negative exponent but 0 is a root of g")
    bound = _degree_bound(g, degree_bound)
    d = g.degree
    basis = None
    bits_used = 0
    for m in exponents:
        if m == 0:
            # x^0 = 1 for every root: the exact kernel of the all-ones column
            part = lattice.kernel_rows([[1]] * d)
        else:
            mod = value_relations(g, LaurentPoly.monomial(m), coeff_cap, degree_bound)
            part = [list(r) for r in mod.basis]
            bits_used = max(bits_used, mod.certificate.get("precision_bits", 0))
        basis = part if basis is None else lattice.intersect_rows(basis, part)
    return RelationModule(
        d,
        tuple(tuple(r) for r in basis),
        "joint",
        _certificate(bits_used, bound, coeff_cap, False),
    )


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
    if v.min_exp < 0 and g.coeffs[0] == 0:
        raise ZeroRootWithNegativeExponent(
            "v has negative exponents but 0 is a root of g"
        )
    order = _order_map(g)

    # reject v vanishing at a root (certified, using the integralized values)
    mk_int = _integral_value_balls(g, v)
    for i in range(d):
        probe = [0] * d
        probe[i] = 1
        if _zero_test(probe, degree_bound, _sum_enclosure(probe, mk_int)):
            raise VanishingValue(f"v vanishes at root #{i} of g")

    def build(bits):
        boxes = _boxes_at(g, 2 * bits + 32)
        with workprec(4 * bits + 128):
            rows = []
            for k, i in enumerate(order):
                b = eval_laurent_ball(v.terms, boxes[i])
                rows.append(
                    _ident(k, d + 1)
                    + [
                        _round_scaled(mpmath.log(abs(b.center)), bits),
                        _round_scaled(mpmath.arg(b.center), bits),
                    ]
                )
            rows.append(_ident(d, d + 1) + [0, _round_scaled(2 * mpmath.pi, bits)])
        return rows

    def certify(alpha):
        return _zero_test(alpha, degree_bound, _product_enclosure(g, v, order, alpha))

    basis, bits, capped = _detect_module(d, build, certify, coeff_cap, saturate=False)
    return RelationModule(
        d, basis, "multiplicative", _certificate(bits, degree_bound, coeff_cap, capped)
    )


def _product_enclosure(g, v, order, alpha):
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
        |beta - 1| >= (M^C * (1 + M^C))^-(D-1) * M^-C.
    A Galois element moves u_i to u_{s(i)} and t_i to t_{s(i)} by one
    permutation s, so P*(beta-1) has at most orbit(alpha) conjugates.  For
    polynomial v (e = 0) this is the plain bound with M = M_v.
    """
    e_shift, vt = v.integralized()
    cc = sum(abs(int(a)) for a in alpha) * (1 + e_shift)

    def enclose(bits, degree_bound):
        boxes = _boxes_at(g, bits)
        factors = [eval_poly_ball(vt, boxes[i]) for i in order]
        if e_shift:
            factors += [boxes[i] for i in order]
        m = mpf(1)
        for b in factors:
            lo = b.abs_lower()
            if lo <= 0:
                raise ZeroDivisionError
            m = max(m, b.abs_upper(), mpmath.fdiv(1, lo, prec=RADIUS_BITS, rounding="u"))
        mc = m**cc
        beta = Ball(1)
        for a, i in zip(alpha, order):
            if a:
                beta = beta * eval_laurent_ball(v.terms, boxes[i]).power(int(a))
        return beta - Ball(1), (mc * (1 + mc)) ** (-(degree_bound - 1)) / mc

    return enclose


@lru_cache(maxsize=None)
def index_ind(
    g: IntPoly,
    coeff_cap: int = DEFAULT_COEFF_CAP,
    degree_bound: int | None = None,
) -> int:
    """ind(g): nonnegative generator of the integers of the form sum alpha_i x_i.

    Computed from an HNF basis of the additive relation module of the
    augmented value list (x_1, ..., x_d, 1): a relation
    sum alpha_i x_i + c = 0 exhibits -c as an attained integer, and the set
    of attained integers is the gcd ideal of the basis' last coordinates.
    """
    roots = _sorted_root_balls(g)
    module = _linear_relations(
        g, lambda bits: roots(bits) + [Ball(1)], g.degree + 1, "index",
        coeff_cap, degree_bound,
    )
    consts = [abs(row[-1]) for row in module.basis if row[-1] != 0]
    return math.gcd(*consts) if consts else 0


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
    add = functools.partial(mpmath.fadd, exact=True)  # bounds stay bounds
    real_tie_tested = False
    for bits, boxes in _box_levels(g):
        ups = [b.abs_upper() for b in boxes]
        los = [b.abs_lower() for b in boxes]
        lo_sum = functools.reduce(add, los)
        if all(add(up, lo) < lo_sum for up, lo in zip(ups, los)):
            return False
        pi = _conjugation_pairing(boxes)
        neg = _negation_partners(g, boxes, degree_bound)
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
        rest_up = functools.reduce(add, [ups[j] for j in range(d) if j != x0])
        rest_lo = functools.reduce(add, [los[j] for j in range(d) if j != x0])
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


def _real_root_signs(g, boxes) -> list[int] | None:
    """Certified sign of each real root (0 for an exact root 0), or None while
    a box of a nonzero root still meets the imaginary axis.

    A real root lies within its box's radius of the center's real part, so
    |Re c| > r fixes its sign; the root 0 (when g(0) = 0) leaves exactly one
    box undecided.
    """
    signs = [
        (1 if b.center.real > 0 else -1) if abs(b.center.real) > b.radius else 0
        for b in boxes
    ]
    if signs.count(0) != (g.coeffs[0] == 0):
        return None
    return signs


def _negation_partners(g, boxes, degree_bound):
    """neg[i] = j when -x_i = x_j (certified), None entry when -x_i is not a
    root; returns None overall while boxes are too coarse to decide."""
    d = len(boxes)
    neg: list[int | None] = []
    for i in range(d):
        mirror = -boxes[i]
        hits = [j for j in range(d) if not mirror.disjoint_from(boxes[j])]
        if len(hits) > 1:
            return None
        if not hits:
            neg.append(None)
            continue
        j = hits[0]
        alpha = [0] * d
        alpha[i] += 1
        alpha[j] += 1
        enclose = _sum_enclosure(alpha, functools.partial(_boxes_at, g))
        if _zero_test(alpha, degree_bound, enclose):
            neg.append(j)
        else:
            neg.append(None)
    return neg


def negation_pairing(g: IntPoly, degree_bound: int | None = None):
    """(pairs, unpaired) of sorted-root indices under x -> -x, certified."""
    degree_bound = _degree_bound(g, degree_bound)
    order = _order_map(g)
    for _, boxes in _box_levels(g):
        raw = _negation_partners(g, boxes, degree_bound)
        if raw is not None:
            inv = {b: k for k, b in enumerate(order)}
            pairs = []
            unpaired = []
            seen = set()
            for k, i in enumerate(order):
                if k in seen:
                    continue
                j = raw[i]
                if j is None:
                    unpaired.append(k)
                    seen.add(k)
                else:
                    partner = inv[j]
                    if partner == k:
                        raise ZeroRoot("0 is a root of g")
                    pairs.append((k, partner))
                    seen.update((k, partner))
            return pairs, unpaired
    raise PrecisionExhausted("negation pairing undecided")
