"""Comparisons between finite-level sums and their limit laws: exact
stationarity reports, empirical moment tables, KS and binned-L1 distances,
and the conditioning experiments.

The exact instruments come first: on a full grid the normalized moment sum
is an integer (orthogonality counts solution tuples), and full-grid Weyl
sums are decided without floating point.  KS and binned L1 are the
secondary, fuzzy instruments for the laws without exact handles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import sums
from .arith import IntPoly
from .errors import OutOfRangeParameter
from .sums import ConditionSet, SumGrid, uniformity_metric

if TYPE_CHECKING:
    from .relations import RelationModule


def _moment_means(vals: np.ndarray, pairs) -> list[float]:
    """Real parts of the means of vals^m * conj(vals)^n for each (m, n) in
    `pairs` (all n <= m), streamed in blocks of sums._BLOCK_ROWS values.

    Per block, each power c^m (m >= 2, as c^(m-1) * c) and each conj(c^n)
    is formed once in a reused buffer, and each pair records the block sum
    of its products; a mean is the pairwise np.sum of its block sums over
    the number of values.  No temporary grows with the grid.
    """
    top = max(m for m, _ in pairs)
    bottom = max(n for _, n in pairs)
    size = min(len(vals), sums._BLOCK_ROWS)
    # row 0: products; row m - 1: c^m for 2 <= m <= top; row top - 1 + n: conj(c^n)
    scratch = np.empty((top + bottom, size), dtype=np.complex128)
    block_sums = np.empty((len(pairs), -(-len(vals) // size)), dtype=np.complex128)
    for j, start in enumerate(range(0, len(vals), size)):
        c = vals[start : start + size]
        powers = [None, c]
        for m in range(2, top + 1):
            powers.append(np.multiply(powers[-1], c, out=scratch[m - 1, : len(c)]))
        conj = [None] + [np.conj(powers[n], out=scratch[top - 1 + n, : len(c)])
                         for n in range(1, bottom + 1)]
        for i, (m, n) in enumerate(pairs):
            if m == 0:
                block_sums[i, j] = len(c)
            elif n == 0:
                block_sums[i, j] = powers[m].sum()
            else:
                block_sums[i, j] = np.multiply(powers[m], conj[n], out=scratch[0, : len(c)]).sum()
    return [float(np.sum(row).real) / len(vals) for row in block_sums]


def empirical_mixed_moment(grid: SumGrid, m: int, n: int) -> float:
    """Average of S(a)^m * conj(S(a))^n over the grid parameters, through
    the moment kernel of moment_table, so the two agree bit for bit.

    On a complete grid this is exactly an integer (up to float rounding,
    bounded in moment_table); the imaginary part cancels by the a -> -a
    symmetry, so the real part is returned.
    """
    if m < 0 or n < 0:
        raise OutOfRangeParameter("moment orders must be nonnegative")
    return _moment_means(grid.values, [(max(m, n), min(m, n))])[0]


def moment_table(grid: SumGrid, max_order: int) -> dict:
    """All empirical mixed moments with m + n <= max_order.

    Each entry equals empirical_mixed_moment bit for bit: one kernel
    streams the values in blocks of sums._BLOCK_ROWS and multiplies only
    pairs with n <= m.  conj commutes exactly with complex multiplication,
    so S^n * conj(S)^m is the conjugate of S^m * conj(S)^n and their means
    have the same real part; conj(S)^n is formed as conj(S^n).

    Error bound.  Let u = 2^-53, k = m + n, eps = d*(d + 43)*u the bound on
    each grid value (see sums) and D = d + eps, which bounds |S| and its
    computed value.  Each of the at most k complex multiplications of a
    product is within sqrt(5)*u of exact, and numpy's pairwise np.sum of at
    most 2^j terms (leaves of at most 128 doubles on 8 accumulators, halved
    above that) adds each term at most 25 + j times, so the block sums and
    their sum take at most h = 50 + ceil(log2 N) additions.  With the final
    division, one more rounding, every entry on a complete grid of N = q^n
    values is within

        k*eps*D^(k-1) + ((1 + sqrt(5)*u)^k * (1 + h*u/(1 - h*u)) * (1 + u) - 1) * D^k

    of the exact mean, the integer count of tuples with sum_i r_i -
    sum_j r_j = 0 mod q^n (which is exact_mixed_moment unless q divides the
    norm of a sum of roots).  For d = 3, k <= 4 and N <= 2^26 that is below
    2.5e-12.
    """
    if max_order < 0:
        raise OutOfRangeParameter("max_order must be nonnegative")
    pairs = [(m, n) for n in range(max_order // 2 + 1) for m in range(n, max_order + 1 - n)]
    lower = dict(zip(pairs, _moment_means(grid.values, pairs)))
    return {
        (m, n): lower[max(m, n), min(m, n)]
        for m in range(max_order + 1)
        for n in range(max_order + 1 - m)
    }


def stationarity_report(
    g: IntPoly,
    primes,
    test_alphas,
    module: RelationModule | None = None,
) -> dict:
    """Exact full-grid Weyl values vs lattice membership, per (q, alpha).

    The full-grid Weyl value is 1 if sum alpha_i r_i = 0 mod q and 0
    otherwise, decided exactly from the split roots, found once per prime.
    alpha indexes the roots mod q sorted as integers, the module the complex
    roots sorted by (Re, Im).  For a complete module invariant under every
    root permutation, entries disagree only when q divides the norm of a
    conjugate sum, for finitely many q; otherwise at any q (X^6 - 1 with
    alpha = (0,1,1,0,0,1) in its lattice has Weyl value 0 at every split
    prime in [1000, 2000]).  The report lists each disagreement.
    """
    if module is None:
        from .relations import additive_relations

        module = additive_relations(g)
    alphas = [[int(a) for a in alpha] for alpha in test_alphas]
    entries = []
    disagreements = []
    for q, roots in sums._split_roots_each(g, primes):
        for alpha in alphas:
            w = int(sums._weyl_phase(roots, alpha, q) == 0)
            in_rg = module.contains(alpha)
            if (w == 1) != in_rg:
                disagreements.append({"q": q, "alpha": alpha})
            entries.append({"q": q, "alpha": alpha, "weyl": w, "in_Rg": in_rg})
    return {
        "poly": str(g),
        "entries": entries,
        "disagreements": disagreements,
        "disagreement_count": len(disagreements),
    }


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest |F_a - F_b| of
    the right-continuous empirical CDFs over the merged sample, read at the
    points of the smaller sample only.

    Let a be the smaller sample.  At each point x of a the candidates are
    the right values F(x) (searchsorted side="right") and the left limits
    F(x-) (side="left"), which are the values at the merged point just
    below x (0 - 0 if there is none): all are merged-grid values.  For any
    merged point y, let x be the largest point of a at most y and x' the
    least above it.  F_a is constant on [x, x'), so F_a(y) = F_a(x) =
    F_a(x'-), while F_b(x) <= F_b(y) <= F_b(x'-): F_a(y) - F_b(y) lies
    between the candidates at x (right) and x' (left); with no x it lies in
    [F_a(x'-) - F_b(x'-), 0], with no x' in [0, F_a(x) - F_b(x)].  The
    candidates share y's count of a, so only the count of b moves, and
    division and subtraction round monotonically: the float at y is bounded
    by a candidate's float, and the returned maximum is bitwise the one over
    the merged grid.  The argument uses only the order that np.sort and
    np.searchsorted share, NaN last.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be nonempty")
    if len(b) < len(a):
        a, b = b, a
    return float(max(
        np.abs(np.searchsorted(a, a, side=side) / len(a)
               - np.searchsorted(b, a, side=side) / len(b)).max()
        for side in ("right", "left")
    ))


def binned_l1_2d(a, b, bins: int, bound: float | None = None) -> float:
    """Half the L1 distance between normalized 2D histograms of complex
    samples on [-bound, bound]^2 (a total-variation estimate at this binning).

    Samples are clipped into the square; only NaN is dropped, and a side
    with no other sample is a ValueError.  The automatic bound is the
    ceiling of the largest |coordinate| of a non-NaN sample, at least 1.
    The counts, those of np.histogram2d on np.linspace(-bound, bound,
    bins + 1), are accumulated by np.bincount over blocks of
    sums._BLOCK_ROWS samples, with each coordinate binned as np.histogram's
    uniform path does: floor, clamp, then a step of one against the edges.
    """
    if bins < 4:
        raise ValueError("bins must be >= 4")
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)

    def blocks(z):
        for start in range(0, len(z), sums._BLOCK_ROWS):
            c = z[start : start + sums._BLOCK_ROWS]
            yield c[~np.isnan(c)]

    if bound is None:
        top = 1.0
        for z in (a, b):
            for c in blocks(z):
                if len(c):
                    top = max(top, np.abs(c.real).max(), np.abs(c.imag).max())
        bound = float(np.ceil(top))
    if not 0 < bound < np.inf:
        raise ValueError(f"bound must be positive and finite, got {bound}")
    edges = np.linspace(-bound, bound, bins + 1)

    def bin_of(x):
        x = np.clip(x, -bound, bound)
        i = np.minimum(((x + bound) * (bins / (2 * bound))).astype(np.intp), bins - 1)
        i -= x < edges[i]
        i += (x >= edges[i + 1]) & (i != bins - 1)
        return i

    def hist(z):
        h = np.zeros(bins * bins, dtype=np.intp)
        for c in blocks(z):
            h += np.bincount(bin_of(c.real) * bins + bin_of(c.imag), minlength=bins * bins)
        if not h.any():
            raise ValueError("samples must hold a non-NaN value")
        return h.reshape(bins, bins) / h.sum()

    return float(0.5 * np.abs(hist(a) - hist(b)).sum())


def conditioning_experiment(
    g: IntPoly,
    q: int,
    n: int,
    A: ConditionSet,
    test_alphas,
    module: RelationModule | None = None,
) -> dict:
    """Quantities of the conditioning setup: uniformity metric of A, the
    restricted Weyl sums for each alpha, and the first/second empirical
    moments of the restricted sum grid.  No asymptotic verdict is asserted.
    The roots are found once for the values and every Weyl sum.
    """
    if module is None:
        from .relations import additive_relations

        module = additive_relations(g)
    roots = sums._set_roots(g, q, n, A)
    values = sums._set_sums(A, roots)
    weyl_entries = []
    for alpha in test_alphas:
        alpha = [int(a) for a in alpha]
        w = sums._set_weyl(roots, alpha, A)
        weyl_entries.append(
            {
                "alpha": alpha,
                "value_re": w.real,
                "value_im": w.imag,
                "in_Rg": module.contains(alpha),
            }
        )
    first = values.mean()
    return {
        "inputs": {
            "poly": str(g),
            "q": q,
            "n": n,
            "descriptor": A.descriptor,
            "size": int(len(A)),
        },
        "uniformity_metric": uniformity_metric(A),
        "weyl": weyl_entries,
        "moments": {
            "first_re": float(first.real),
            "first_im": float(first.imag),
            "second_abs": float((np.abs(values) ** 2).mean()),
        },
    }
