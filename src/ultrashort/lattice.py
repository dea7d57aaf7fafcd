"""Exact integer lattice utilities: row HNF, SNF with transforms, kernels,
intersections, saturation and all-integer LLL reduction.

Row convention throughout: a lattice is the set of integer combinations of
the rows of its basis matrix. Kernels and saturations are read off row
Hermite normal forms, so their bases are canonical. The Smith decomposition
U*A*V = S (U, V unimodular, nonnegative diagonal with a divisibility chain)
is a small elimination (Cohen, GTM 138, Alg. 2.4.14) that only the torus
sampler needs.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0, for nonzero a and b.

    Euclid on |a| and |b| with the signs put back on x and y afterwards;
    this fixes which unimodular steps the Smith elimination takes.
    """
    sa, sb = (-1 if a < 0 else 1), (-1 if b < 0 else 1)
    a, b = abs(a), abs(b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return a, x * sa, y * sb


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(rows: list[list[int]]) -> SnfDecomposition:
    """Exact Smith decomposition of an integer matrix (any shape).

    At each diagonal position k a nonzero pivot is swapped to (k, k) (from
    column k, else row k, else anywhere in the remaining block); column k
    is then cleared by row operations and row k by column operations, in
    turn, until both are zero, and the pivot is made positive. Gcd steps on
    the diagonal finally restore the divisibility chain.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    a = [[int(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    u, v = _identity(m), _identity(n)

    def row_op(i, j, x, y, z, w, mats=(a, u)):
        # (row i, row j) <- (x*row i + y*row j, z*row i + w*row j)
        for mat in mats:
            ri, rj = mat[i], mat[j]
            mat[i] = [x * p + y * q for p, q in zip(ri, rj)]
            mat[j] = [z * p + w * q for p, q in zip(ri, rj)]

    def col_op(i, j, x, y, z, w, mats=(a, v)):
        # (col i, col j) <- (x*col i + y*col j, z*col i + w*col j)
        for mat in mats:
            for row in mat:
                p, q = row[i], row[j]
                row[i], row[j] = x * p + y * q, z * p + w * q

    def eliminate(k, op, entry, count):
        # zero entry(j) for j > k with op on (k, j); the pivot is entry(k)
        for j in range(k + 1, count):
            e, p = entry(j), entry(k)
            if e == 0:
                continue
            if e % p == 0:
                op(k, j, 1, 0, -(e // p), 1)
            else:
                g, x, y = _gcdext(p, e)
                op(k, j, x, y, e // g, -(p // g))

    diag = []
    for k in range(min(m, n)):
        block = [(i, j) for i in range(k, m) for j in range(k, n) if a[i][j]]
        if not block:
            break
        # a pivot from column k, else from row k, else the first one left
        i, j = min(block, key=lambda ij: (ij[1] != k, ij[0] != k, ij))
        a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
        col_op(k, j, 0, 1, 1, 0)
        while any(a[k][j] for j in range(k + 1, n)) or any(a[i][k] for i in range(k + 1, m)):
            eliminate(k, row_op, lambda i: a[i][k], m)
            eliminate(k, col_op, lambda j: a[k][j], n)
        if a[k][k] < 0:
            a[k], u[k] = [-x for x in a[k]], [-x for x in u[k]]
        diag.append(a[k][k])
    # divisibility chain: (s_i, s_j) -> (gcd, lcm) until s_i divides every s_j
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            s_i, s_j = diag[i], diag[j]
            if s_j % s_i == 0:
                continue
            g, x, y = _gcdext(s_i, s_j)
            row_op(i, j, 1, 0, x, 1, mats=(u,))
            col_op(i, j, 1, y, 0, 1, mats=(v,))
            row_op(i, j, 1, -(s_i // g), 0, 1, mats=(u,))
            col_op(i, j, 1, 0, -(s_j // g), 1, mats=(v,))
            row_op(i, j, 0, 1, -1, 0, mats=(u,))
            diag[i], diag[j] = g, s_j * (s_i // g)
    s = [[0] * n for _ in range(m)]
    for k, x in enumerate(diag):
        s[k][k] = x
    return SnfDecomposition(
        tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))
    )


def kernel_rows(rows: list[list[int]]) -> list[list[int]]:
    """Basis (row HNF) of {u in Z^m : u * A = 0} for the m x d matrix A.

    The row HNF of [A | I] is an echelon basis of {(uA, u)}, so its rows
    with zero A-part carry an HNF basis of the kernel in their I-part
    (Cohen, GTM 138, Sec. 2.4.3).
    """
    if not rows:
        return []
    d, m = len(rows[0]), len(rows)
    aug = [[int(x) for x in row] + e for row, e in zip(rows, _identity(m))]
    return [row[d:] for row in hnf_rows(aug) if not any(row[:d])]


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
    """Row-HNF basis of the saturation (Q-span intersected with Z^d).

    sat(L) = {y : y * K = 0}, where the columns of K span the right kernel
    of L; with no right kernel (L of rank d) it is all of Z^d.
    """
    rows = hnf_rows(rows)
    if not rows:
        return []
    d = len(rows[0])
    right = kernel_rows([list(col) for col in zip(*rows)])
    if not right:
        return _identity(d)
    return kernel_rows([list(col) for col in zip(*right)])


def lll_rows(rows: list[list[int]]) -> list[list[int]]:
    """All-integer LLL, delta = 99/100 (Cohen, Alg. 2.6.7), of independent rows.

    d[i] is the Gram determinant of the first i rows and lam[k][j] =
    d[j+1] * mu_kj; both are integers, so every division is exact.
    """
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                lam[k][j] = u
            d[k + 1] = lam[k][k]
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + lk * lk) < 99 * d[k] * d[k]:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            big = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
            d[k] = big
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b
