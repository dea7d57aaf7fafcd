"""Exact integer lattice utilities: row HNF, SNF with transforms, kernels,
intersections and saturation.

Row convention throughout: a lattice is the set of integer combinations of
the rows of its basis matrix. The Smith decomposition satisfies U*A*V = S
with U, V unimodular; it is delegated to sympy and re-canonicalized so the
diagonal is nonnegative with a divisibility chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import ZZ, Matrix
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Pivots are positive, strictly to the right as you go down, and entries
    above each pivot are reduced into [0, pivot). Zero rows are dropped, so
    the result is a basis (unique per lattice).
    """
    work = [[int(x) for x in row] for row in rows if any(row)]
    if not work:
        return []
    cols = len(work[0])
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        # clear the column below the pivot with gcd steps
        for i in range(r + 1, len(work)):
            while work[i][col] != 0:
                if abs(work[r][col]) > abs(work[i][col]):
                    work[r], work[i] = work[i], work[r]
                q = work[i][col] // work[r][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        if work[r][col] < 0:
            work[r] = [-a for a in work[r]]
        r += 1
        if r == len(work):
            break
    work = [row for row in work[:r] if any(row)]
    # reduce entries above each pivot into [0, pivot)
    pivots = [next(k for k, v in enumerate(row) if v != 0) for row in work]
    # top-down: row i is zero left of its pivot, so earlier reductions stay
    for i in range(len(work)):
        p = pivots[i]
        for k in range(i):
            q = work[k][p] // work[i][p]
            if q:
                work[k] = [a - q * b for a, b in zip(work[k], work[i])]
    return work


def in_lattice(basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of vec in the row lattice (basis must be in row HNF)."""
    v = [int(x) for x in vec]
    for row in basis:
        p = next(k for k, val in enumerate(row) if val != 0)
        if v[p] % row[p] != 0:
            return False
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class SnfDecomposition:
    """U*A*V = S with U, V unimodular and s_1 | s_2 | ... | s_k >= 1."""

    U: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        out = []
        for i in range(min(len(self.S), len(self.S[0]) if self.S else 0)):
            if self.S[i][i] != 0:
                out.append(self.S[i][i])
        return tuple(out)


def _to_int_rows(m) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in m.to_list())


def smith_normal_form(rows: list[list[int]]) -> SnfDecomposition:
    """Exact Smith decomposition of an integer matrix (any shape)."""
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    m = DomainMatrix(
        [[ZZ(int(x)) for x in row] for row in rows], (len(rows), len(rows[0])), ZZ
    )
    s, u, v = smith_normal_decomp(m)
    S = [list(map(int, row)) for row in s.to_list()]
    U = [list(map(int, row)) for row in u.to_list()]
    # normalize: nonnegative diagonal (flip the matching U row)
    for i in range(min(len(S), len(S[0]))):
        if S[i][i] < 0:
            S[i][i] = -S[i][i]
            U[i] = [-x for x in U[i]]
    snf = SnfDecomposition(
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in S),
        _to_int_rows(v),
    )
    factors = snf.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, "sympy SNF lost the divisibility chain"
    return snf


def kernel_rows(rows: list[list[int]]) -> list[list[int]]:
    """Basis (row HNF) of {u in Z^m : u * A = 0} for the m x d matrix A."""
    if not rows:
        return []
    snf = smith_normal_form(rows)
    r = snf.rank
    ker = [list(row) for row in snf.U[r:]]
    return hnf_rows(ker)


def intersect_rows(b1: list[list[int]], b2: list[list[int]]) -> list[list[int]]:
    """Row-HNF basis of the intersection of two row lattices in Z^d."""
    if not b1 or not b2:
        return []
    stacked = [list(r) for r in b1] + [list(r) for r in b2]
    r1 = len(b1)
    out = []
    for w in kernel_rows(stacked):
        u = w[:r1]
        vec = [0] * len(b1[0])
        for coef, row in zip(u, b1):
            for j, x in enumerate(row):
                vec[j] += coef * x
        out.append(vec)
    return hnf_rows(out)


def saturate_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-HNF basis of the saturation (Q-span intersected with Z^d)."""
    rows = hnf_rows(rows)
    if not rows:
        return []
    snf = smith_normal_form(rows)
    r = snf.rank
    v_inv = Matrix([list(row) for row in snf.V]).inv()
    sat = [[int(v_inv[i, j]) for j in range(v_inv.cols)] for i in range(r)]
    return hnf_rows(sat)
