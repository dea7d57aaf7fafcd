"""Exact integer lattice utilities: HNF, SNF, kernels, intersections."""

import itertools
import math
import random

import pytest

from ultrashort.arith import _bareiss_det
from ultrashort.lattice import (
    hnf_rows,
    in_lattice,
    intersect_rows,
    kernel_rows,
    saturate_rows,
    smith_normal_form,
)


def test_hnf_is_canonical_under_generator_changes():
    basis = [[2, 3, 1], [0, 4, -2]]
    h1 = hnf_rows(basis)
    # swap, negate, and mix generators: same lattice, same HNF
    h2 = hnf_rows([[0, -4, 2], [2, 3, 1], [2, 7, -1]])
    assert h1 == h2
    # a later pivot's reduction must survive the earlier pivots' reductions
    h3 = hnf_rows([[1, 1, 5], [0, 1, 3], [0, 0, 4]])
    assert h3 == hnf_rows([[1, 0, 2], [0, 1, 3], [0, 0, 4]]) == [[1, 0, 2], [0, 1, 3], [0, 0, 4]]
    for h in (h1, h3):
        for i, row in enumerate(h):
            p = next(k for k, x in enumerate(row) if x != 0)
            assert row[p] > 0
            assert all(0 <= above[p] < row[p] for above in h[:i])


def test_hnf_drops_zero_rows():
    assert hnf_rows([[0, 0], [0, 0]]) == []
    assert hnf_rows([]) == []


def test_in_lattice_brute_force():
    basis = hnf_rows([[2, 0, 1], [0, 3, 1]])
    members = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            members.add((2 * a, 3 * b, a + b))
    for v in members:
        assert in_lattice(basis, list(v))
    assert not in_lattice(basis, [1, 0, 0])
    assert not in_lattice(basis, [2, 0, 0])
    assert in_lattice(basis, [0, 0, 0])


@pytest.mark.parametrize(
    "rows,diag",
    [
        ([[1, 1, 1]], [1]),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[0]], []),
    ],
)
def test_snf_examples(rows, diag):
    snf = smith_normal_form(rows)
    assert list(snf.invariant_factors) == diag


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _determinantal_divisors(rows):
    """[d_1, d_2, ...]: d_k is the gcd of all k x k minors, up to the rank."""
    out = []
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d_k = 0
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(len(rows[0])), k):
                d_k = math.gcd(d_k, _bareiss_det([[rows[i][j] for j in ci] for i in ri]))
        if d_k == 0:
            break
        out.append(d_k)
    return out


def test_snf_reconstruction_on_random_matrices():
    rng = random.Random(777)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        snf = smith_normal_form(rows)
        u, s, v = ([list(r) for r in m] for m in (snf.U, snf.S, snf.V))
        assert _matmul(_matmul(u, rows), v) == s
        assert abs(_bareiss_det(u)) == 1 and abs(_bareiss_det(v)) == 1
        assert all(s[i][j] == 0 for i in range(4) for j in range(6) if i != j)
        factors = snf.invariant_factors
        assert all(b % c == 0 for c, b in zip(factors, factors[1:]))
        assert all(f > 0 for f in factors)
        # s_k = d_k / d_(k-1), with d_k the gcd of the k x k minors
        divisors = _determinantal_divisors(rows)
        assert list(factors) == [d // p for p, d in zip([1] + divisors, divisors)]


def _random_matrix(rng, max_rows=5, max_cols=5, entry=3):
    m, d = rng.randint(1, max_rows), rng.randint(1, max_cols)
    rows = [[rng.randint(-entry, entry) for _ in range(d)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]  # force a dependency
    return rows


def test_kernel_rows_on_random_matrices():
    rng = random.Random(4242)
    for _ in range(300):
        rows = _random_matrix(rng)
        ker = kernel_rows(rows)
        for u in ker:
            assert _matmul([u], rows) == [[0] * len(rows[0])]
        assert len(ker) == len(rows) - len(_determinantal_divisors(rows))
        assert hnf_rows(ker) == ker
        assert saturate_rows(ker) == ker


def test_saturate_rows_matches_a_brute_force_window():
    rng = random.Random(99)
    for _ in range(30):
        rows = _random_matrix(rng, max_rows=3, max_cols=3, entry=4)
        basis = hnf_rows(rows)
        if not basis:
            continue
        sat = saturate_rows(rows)
        assert all(in_lattice(sat, r) for r in basis)
        # x in sat(L) iff k*x in L for some k; the least such k divides the
        # largest invariant factor, so k up to that factor is enough
        divisors = _determinantal_divisors(basis)
        top = divisors[-1] // (divisors[-2] if len(divisors) > 1 else 1)
        for x in itertools.product(range(-3, 4), repeat=len(basis[0])):
            in_window = any(in_lattice(basis, [k * c for c in x]) for k in range(1, top + 1))
            assert in_lattice(sat, list(x)) == in_window


def test_kernel_rows():
    rows = [[1, 2], [2, 4], [0, 1]]  # row 2 = 2 * row 1
    ker = kernel_rows(rows)
    assert ker == [[2, -1, 0]]
    for k in ker:
        prod = [sum(k[i] * rows[i][j] for i in range(3)) for j in range(2)]
        assert prod == [0, 0]
    assert kernel_rows([[1, 0], [0, 1]]) == []


def test_intersect_rows():
    b1 = [[2, 0], [0, 1]]  # even first coordinate
    b2 = [[1, 1]]          # multiples of (1, 1)
    inter = intersect_rows(b1, b2)
    assert inter == [[2, 2]]
    # intersection membership agrees with pairwise membership on a window
    h1, h2 = hnf_rows(b1), hnf_rows(b2)
    for x in range(-6, 7):
        for y in range(-6, 7):
            both = in_lattice(h1, [x, y]) and in_lattice(h2, [x, y])
            assert both == in_lattice(inter, [x, y])


def test_saturate_rows():
    assert saturate_rows([[2, 0]]) == [[1, 0]]
    assert saturate_rows([[2, 4]]) == [[1, 2]]
    sat = saturate_rows([[2, 0, 2], [0, 3, 3]])
    assert sat == hnf_rows([[1, 0, 1], [0, 1, 1]])
    assert saturate_rows([]) == []
