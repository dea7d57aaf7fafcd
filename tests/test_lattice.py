"""Exact integer lattice utilities: HNF, SNF, kernels, intersections."""

import random

import pytest
from sympy import Matrix

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


def test_snf_reconstruction_on_random_matrices():
    rng = random.Random(777)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        snf = smith_normal_form(rows)
        u, s, v = (Matrix([list(r) for r in m]) for m in (snf.U, snf.S, snf.V))
        a = Matrix(rows)
        assert u * a * v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        # A = U^-1 S V^-1 exactly
        assert u.inv() * s * v.inv() == a
        factors = snf.invariant_factors
        assert all(b % c == 0 for c, b in zip(factors, factors[1:]))
        assert all(f > 0 for f in factors)


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
