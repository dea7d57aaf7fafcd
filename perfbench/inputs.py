"""Seeded inputs for the three workloads.

This is the benchmark's own code: the program under test receives only what
`generate(workload, seed)` returns, and the same pair always gives the same
inputs.  Prime bands are handed over as (lo, hi, pick); the workload finds
the split primes with `arith.find_split_primes` as a timed step and uses the
`pick`-th one (mod the count).  Polynomials go over as text that
`IntPoly.parse` reads.

Relation detection (LLL) is not benchmarked yet, so every workload that needs
an additive relation module gets a fixture basis from here.  The modules are
invariant under root permutation, so the order of the certified roots does
not matter for them.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

WORKLOADS = ("additive", "kloosterman", "certify")

# Additive relation modules of the fixtures (row bases in HNF).
MODULES = {
    "X^3+X+3": [[1, 1, 1]],
    "X^3+2X^2+3": [],
    "X^5-1": [[1, 1, 1, 1, 1]],
    "X^3+X^2+2X+1": [],
}
CONDITION_POLY = "X^3+X^2+2X+1"
KL_POLY = "X^3-9X-1"
CYCLOTOMIC = (3, 5, 6, 7)

# Split primes above 10^6 exceed (4 * house)^6 for every additive fixture, so
# q cannot divide the norm of a nonzero sum of at most four roots: moments of
# order <= 4 and Weyl values of vectors with |alpha|_1 <= 4 are then exact.
EXACT_PRIME_FLOOR = 1_000_000


def _band(rng: random.Random, lo: int, spread: int, width: int) -> dict:
    start = lo + rng.randrange(spread + 1)
    return {"lo": start, "hi": start + width, "pick": rng.randrange(1 << 16)}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _non_relations(rng, d, basis, count):
    """Vectors with entries in [-2, 2] and 1 <= |alpha|_1 <= 4 outside the
    module spanned by `basis` (zero or the all-ones row)."""
    out = []
    while len(out) < count:
        a = [rng.randint(-2, 2) for _ in range(d)]
        norm1 = sum(map(abs, a))
        if not 1 <= norm1 <= 4:
            continue
        if basis and len(set(a)) == 1:
            continue
        if a not in out:
            out.append(a)
    return out


def additive(seed: int) -> dict:
    rng = random.Random(f"additive:{seed}")
    floor = EXACT_PRIME_FLOOR
    fixtures = ["X^3+X+3", "X^3+2X^2+3", "X^5-1"]
    return {
        "moment_grids": [
            dict(poly=p, **_band(rng, floor, 50_000, 3_000)) for p in fixtures
        ],
        # q^2 about 10^7: X^3-1 splits at 3163, 3169, 3181 and 3187.
        "grid_n2": dict(poly="X^3-1", **_band(rng, 3_160, 0, 30)),
        "stationarity": [
            dict(
                poly=p,
                count=25,
                non_relations=_non_relations(rng, 5 if p == "X^5-1" else 3, MODULES[p], 6),
                **_band(rng, floor, 50_000, 8_000),
            )
            for p in fixtures
        ],
        "sigma": [
            {"poly": p, "seed": rng.randrange(1 << 30), "count": 10**6}
            for p in fixtures[:2]
        ],
        "mult": dict(poly="X^3-1", **_band(rng, 100_000, 10_000, 2_000)),
        "condition": dict(poly=CONDITION_POLY, **_band(rng, 100_000, 10_000, 2_000)),
        # q <= 4096 takes the direct-DFT route of uniformity_metric.
        "condition_small": dict(poly=CONDITION_POLY, **_band(rng, 3_000, 600, 400)),
        "cli": dict(poly="X^3+X+3", sweep_limit=10_000, **_band(rng, 100_000, 4_000, 2_000)),
    }


def kloosterman(seed: int) -> dict:
    rng = random.Random(f"kloosterman:{seed}")
    small = [q for q in range(50, 400) if _is_prime(q)]
    kl3 = []
    for _ in range(100):
        q = rng.choice(small)
        kl3.append([rng.randrange(1, q), q])
    kl2 = []
    for _ in range(3):
        q = _next_prime(100_000 + rng.randrange(5_000))
        kl2.append([rng.randrange(1, q), q])
    return {
        "poly": KL_POLY,
        # one split prime from each band; r=3 runs on the first, KS on the second
        "bands": [
            _band(rng, 4_000, 100, 300),
            _band(rng, 8_000, 100, 200),
            _band(rng, 12_000, 100, 200),
        ],
        "st_sum": {"terms": 3, "count": 10**6, "seed": rng.randrange(1 << 30)},
        "usp": {"count": 10**5, "seed": rng.randrange(1 << 30)},
        "st": {"count": 10**5, "seed": rng.randrange(1 << 30)},
        "kl3": kl3,
        "kl2": kl2,
    }


# ---------------------------------------------------------------------------
# certify fixtures


def _poly_text(coeffs: list[int]) -> str:
    """Comma form c0,c1,...,cd (lowest degree first) that IntPoly.parse reads."""
    return ",".join(str(c) for c in coeffs)


def _sorted_roots(coeffs: list[int]) -> list[complex]:
    """Roots sorted by (Re, Im), with real parts within 1e-9 treated as equal."""
    roots = sorted((complex(r) for r in np.roots(coeffs[::-1])), key=lambda z: z.real)
    out: list[complex] = []
    group: list[complex] = []
    for z in roots:
        if group and abs(z.real - group[0].real) > 1e-9:
            out += sorted(group, key=lambda w: w.imag)
            group = []
        group.append(z)
    return out + sorted(group, key=lambda w: w.imag)


def _negation_pairs(roots):
    pairs = []
    for i, x in enumerate(roots):
        for j in range(i + 1, len(roots)):
            if abs(x + roots[j]) < 1e-9:
                pairs.append([i, j])
    return pairs


def _dominant(roots) -> bool | None:
    """Numerical dominant-root verdict, or None when it is within 1e-3 of a
    tie or when root moduli tie outside conjugation/negation orbits (which
    `dominant_root_holds` documents as undecidable below its precision cap)."""
    d = len(roots)
    orbit = list(range(d))
    for i, x in enumerate(roots):
        for j, y in enumerate(roots):
            if abs(x.conjugate() - y) < 1e-9 or abs(x + y) < 1e-9:
                a, b = orbit[i], orbit[j]
                orbit = [a if o == b else o for o in orbit]
    moduli = {}
    for i, x in enumerate(roots):
        moduli.setdefault(orbit[i], abs(x))
    values = sorted(moduli.values())
    if any(b - a < 1e-6 for a, b in zip(values, values[1:])):
        return None
    top = max(range(d), key=lambda i: abs(roots[i]))
    margin = abs(roots[top]) - sum(abs(roots[j]) for j in range(d) if j != top)
    if abs(margin) < 1e-3:
        return None
    return margin > 0


def _cyclotomic_rows(n: int, roots) -> list[list[int]]:
    """Rotated regular p-gons (p | n prime) among the n-th roots of unity."""
    rows = []
    for p in (p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)):
        step = n // p
        for k in range(step):
            row = [0] * n
            for j in range(p):
                z = complex(math.cos(2 * math.pi * (k + j * step) / n),
                            math.sin(2 * math.pi * (k + j * step) / n))
                row[min(range(n), key=lambda i: abs(roots[i] - z))] = 1
            rows.append(row)
    return rows


def _fixture(name: str, coeffs: list[int], rng, cyclotomic: int | None = None) -> dict:
    """Certify-workload fixture: sorted roots, known relation rows (all-ones
    for trace zero, negation pairs, p-gons of X^n - 1), numerical
    non-relations, and the expected verdicts."""
    roots = _sorted_roots(coeffs)
    d = len(roots)
    extra_rows = _cyclotomic_rows(cyclotomic, roots) if cyclotomic else []
    pairs = _negation_pairs(roots)
    rows = []
    if coeffs[d - 1] == 0:  # trace zero: the roots sum to 0
        rows.append([1] * d)
    for i, j in pairs:
        row = [0] * d
        row[i] = row[j] = 1
        rows.append(row)
    for row in extra_rows:
        if row not in rows:
            rows.append(row)
    for row in rows:
        assert abs(sum(a * x for a, x in zip(row, roots))) < 1e-9, (name, row)
    non_rel = []
    while len(non_rel) < 4:
        a = [rng.randint(-2, 2) for _ in range(d)]
        if abs(sum(c * x for c, x in zip(a, roots))) > 0.01 and a not in non_rel:
            non_rel.append(a)
    return {
        "name": name,
        "poly": _poly_text(coeffs),
        "roots": [[z.real, z.imag] for z in roots],
        "relations": rows,
        "non_relations": non_rel,
        "negation_pairs": pairs,
        # X^n - 1: every root has modulus 1, a tie dominant_root_holds cannot decide
        "dominant": None if cyclotomic else _dominant(roots),
        # rank of the relation module of X^n - 1 is n - phi(n)
        "rank": cyclotomic - sum(math.gcd(k, cyclotomic) == 1 for k in range(cyclotomic))
        if cyclotomic else None,
    }


def _min_gap(roots) -> float:
    return min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])


def _irreducible(roots) -> bool:
    """No proper subset of the roots is the root set of an integer polynomial."""
    for k in range(1, len(roots) // 2 + 1):
        for subset in itertools.combinations(roots, k):
            c = np.poly(subset)
            if np.abs(c - np.round(c.real)).max() < 1e-6:
                return False
    return True


def _seeded_poly(rng, degree: int, even: bool, house=None):
    """Random trace-zero monic integer polynomial with well-separated nonzero
    roots: even (g = h(X^2)) or irreducible."""
    while True:
        coeffs = [0] * degree + [1]
        if even:
            for k in range(0, degree, 2):
                coeffs[k] = rng.randint(-3, 3)
        else:
            for k in range(degree - 1):
                coeffs[k] = rng.randint(-2, 2) if degree > 5 else rng.randint(-3, 3)
        if coeffs[0] == 0:
            continue
        roots = np.roots(coeffs[::-1])
        if _min_gap(roots) < 1e-3:
            continue
        if house is not None and not house[0] <= max(abs(roots)) <= house[1]:
            continue
        if not even and not _irreducible(roots):
            continue
        if _dominant(_sorted_roots(coeffs)) is None:
            continue
        return coeffs


def certify(seed: int) -> dict:
    rng = random.Random(f"certify:{seed}")
    fixtures = []
    for n in CYCLOTOMIC:
        fixtures.append(_fixture(f"X^{n}-1", [-1] + [0] * (n - 1) + [1], rng, cyclotomic=n))
    for degree, even in ((3, False), (4, True), (5, False), (6, True)):
        coeffs = _seeded_poly(rng, degree, even)
        fixtures.append(_fixture(f"seeded-{degree}", coeffs, rng))
    # The generic degree-7 zero test costs time rising with the house of g;
    # a narrow house band keeps that cost nearly the same from seed to seed.
    coeffs = _seeded_poly(rng, 7, False, house=(1.45, 1.50))
    fixtures.append(_fixture("seeded-7", coeffs, rng))
    # not trace zero: a root dominates the others
    while True:
        coeffs = [rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2), rng.randint(5, 7), 1]
        roots = _sorted_roots(coeffs)
        if _dominant(roots) and _min_gap(roots) > 1e-3:
            break
    fixtures.append(_fixture("seeded-dominant", coeffs, rng))
    return {"fixtures": fixtures, "precision_bits": 128}


def generate(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"additive": additive, "kloosterman": kloosterman, "certify": certify}[workload](seed)
