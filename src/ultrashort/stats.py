"""Comparisons between finite-level sums and their limit laws: exact
stationarity reports, empirical moment tables, KS and binned-L1 distances,
and the conditioning experiments.

The exact instruments come first: on a full grid the normalized moment sum
is an integer (orthogonality counts solution tuples), and full-grid Weyl
sums are decided without floating point.  KS and binned L1 are the
secondary, fuzzy instruments for the laws without exact handles.
"""

from __future__ import annotations

import numpy as np

from .arith import IntPoly
from .errors import OutOfRangeParameter
from .relations import RelationModule, additive_relations
from .sums import (
    ConditionSet,
    SumGrid,
    _split_roots,
    _weyl_phase,
    restricted_sum_values,
    uniformity_metric,
    weyl_sum,
)


def empirical_mixed_moment(grid: SumGrid, m: int, n: int) -> float:
    """Average of S(a)^m * conj(S(a))^n over the grid parameters.

    On a complete grid this is exactly an integer (up to float rounding);
    the imaginary part cancels by the a -> -a symmetry, so the real part is
    returned.
    """
    vals = grid.values
    acc = (vals**m) * (np.conj(vals) ** n)
    return float(acc.mean().real)


def moment_table(grid: SumGrid, max_order: int) -> dict:
    """All empirical mixed moments with m + n <= max_order.

    Each entry equals empirical_mixed_moment bit for bit.  Every power
    vals**m is computed once, and only pairs with n <= m are multiplied: conj
    commutes exactly with complex multiplication, so S^n * conj(S)^m is the
    conjugate of S^m * conj(S)^n and their means have the same real part.
    """
    if max_order < 0:
        raise OutOfRangeParameter("max_order must be nonnegative")
    vals = grid.values
    powers = [vals**m for m in range(max_order + 1)]
    conj = np.conj(vals)
    product = np.empty_like(vals)
    lower = {}
    for n in range(max_order // 2 + 1):
        conj_power = conj**n
        for m in range(n, max_order + 1 - n):
            np.multiply(powers[m], conj_power, out=product)
            lower[m, n] = float(product.mean().real)
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
    Entries disagree only when q divides the norm of a conjugate sum, which
    happens for finitely many q; the report lists any such prime explicitly.
    """
    if module is None:
        module = additive_relations(g)
    alphas = [[int(a) for a in alpha] for alpha in test_alphas]
    entries = []
    disagreements = []
    for q in primes:
        roots = _split_roots(g, q)
        for alpha in alphas:
            w = int(_weyl_phase(roots, alpha, q) == 0)
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
    """Two-sample Kolmogorov-Smirnov statistic, exact via sorted merge."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def binned_l1_2d(a, b, bins: int, bound: float | None = None) -> float:
    """Half the L1 distance between normalized 2D histograms of complex
    samples on [-bound, bound]^2 (a total-variation estimate at this binning).

    Samples are clipped into the square; only NaN is dropped.  The counts,
    those of np.histogram2d on np.linspace(-bound, bound, bins + 1), come
    from one np.bincount, with each coordinate binned as np.histogram's
    uniform path does: floor, clamp, then a step of one against the edges.
    """
    if bins < 4:
        raise ValueError("bins must be >= 4")
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if bound is None:
        top = max(
            1.0,
            np.abs(a.real).max(),
            np.abs(a.imag).max(),
            np.abs(b.real).max(),
            np.abs(b.imag).max(),
        )
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
        z = z[~np.isnan(z)]
        h = np.bincount(bin_of(z.real) * bins + bin_of(z.imag), minlength=bins * bins)
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
    """
    if module is None:
        module = additive_relations(g)
    values = restricted_sum_values(g, q, n, A)
    weyl_entries = []
    for alpha in test_alphas:
        alpha = [int(a) for a in alpha]
        w = weyl_sum(g, q, n, alpha, A)
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
