"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact identities are asserted with no tolerance; the
Monte-Carlo instruments use the stated bounds.
"""

import math
import time

import numpy as np

from ultrashort.arith import IntPoly, LaurentPoly, is_prime, primes_in_range
from ultrashort.limitlaw import (
    exact_mixed_moment,
    haar_trace_samples,
    philox_generator,
    sato_tate_samples,
    sato_tate_sum_samples,
    sigma_samples,
    torus_subgroup,
)
from ultrashort.relations import additive_relations, index_ind, value_relations
from ultrashort.stats import (
    binned_l1_2d,
    conditioning_experiment,
    empirical_mixed_moment,
    ks_distance,
)
from ultrashort.sums import (
    additive_sum_grid,
    hyper_kloosterman,
    make_condition_set,
    mult_char_sum_grid,
    trace_sum_grid,
    weyl_sum,
)


def _report(criterion: int, label: str, started: float, budget: float, checks):
    elapsed = time.time() - started
    failed = [msg for ok, msg in checks if not ok]
    ok = not failed and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {label} ({elapsed:.1f}s/{budget:.0f}s)")
    for msg in failed:
        print(f"    failed: {msg}")
    assert not failed, f"criterion {criterion}: {failed}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def _split_primes_from(g, lo, count, hi=10**5):
    from ultrashort.arith import is_split

    out = []
    for q in primes_in_range(lo, hi):
        if is_split(g, q):
            out.append(q)
            if len(out) == count:
                return out
    raise AssertionError(f"not enough split primes in [{lo}, {hi}]")


def test_criterion_1_relation_fixtures():
    started = time.time()
    checks = []
    for ell in (3, 5, 7):
        mod = additive_relations(IntPoly.parse(f"X^{ell}-1"))
        checks.append(
            (mod.basis == ((1,) * ell,), f"X^{ell}-1 basis should be all-ones")
        )
    checks.append(
        (additive_relations(IntPoly.parse("X^6-1")).rank == 4, "X^6-1 rank 4")
    )
    checks.append(
        (additive_relations(IntPoly.parse("X^3+2X^2+3")).rank == 0, "X^3+2X^2+3 rank 0")
    )
    checks.append(
        (additive_relations(IntPoly.parse("X^3+X+3")).rank == 1, "X^3+X+3 rank 1")
    )
    vr = value_relations(IntPoly.parse("X^5-1"), LaurentPoly.parse("X+X^-1"))
    checks.append((vr.rank == 3, "value relations (X^5-1, X+X^-1) rank 3"))
    checks.append((index_ind(IntPoly.parse("X^3+X^2+2X+1")) == 1, "ind = 1"))
    checks.append((index_ind(IntPoly.parse("X^2+1")) == 0, "ind = 0"))
    checks.append((index_ind(IntPoly.parse("X-5")) == 5, "ind = 5"))
    _report(1, "relation fixtures (exact)", started, 10.0, checks)


def test_criterion_2_weyl_stationarity():
    started = time.time()
    checks = []
    fixtures = ["X^3-1", "X^5-1", "X^7-1", "X^3+X+3", "X^3+2X^2+3"]
    rng = philox_generator(20250811, "acceptance-nonrel")
    for text in fixtures:
        g = IntPoly.parse(text)
        module = additive_relations(g)
        primes = _split_primes_from(g, 1000, 25)
        sets = [make_condition_set(q, 1, "full") for q in primes]
        for row in module.basis:
            vals = [weyl_sum(g, q, 1, list(row), A) for q, A in zip(primes, sets)]
            checks.append(
                (all(v == 1 for v in vals), f"{text}: relation {list(row)} -> 1")
            )
        nonrel = []
        while len(nonrel) < 10:
            a = [int(x) for x in rng.integers(-2, 3, size=g.degree)]
            norm1 = sum(map(abs, a))
            if norm1 == 0 or norm1 > 4 or module.contains(a):
                continue
            nonrel.append(a)
        bad = 0
        for a in nonrel:
            for q, A in zip(primes, sets):
                if weyl_sum(g, q, 1, a, A) != 0:
                    bad += 1
        checks.append((bad == 0, f"{text}: {bad} non-relation disagreements"))
    _report(2, "Weyl stationarity (exact integers)", started, 30.0, checks)


def test_criterion_3_moment_stationarity():
    started = time.time()
    checks = []
    cases = [("X^3+X+3", 30223, 6), ("X^3+2X^2+3", 30113, 0)]
    for text, q, want30 in cases:
        g = IntPoly.parse(text)
        module = additive_relations(g)
        grid = additive_sum_grid(g, q)
        for m in range(5):
            for n in range(5 - m):
                emp = empirical_mixed_moment(grid, m, n)
                scaled = q * emp
                checks.append(
                    (
                        abs(scaled - round(scaled)) < 1e-4,
                        f"{text}: q*moment({m},{n}) integer",
                    )
                )
                exact = exact_mixed_moment(module, m, n)
                checks.append(
                    (
                        abs(emp - exact) < 1e-3,
                        f"{text}: moment({m},{n}) = {emp} vs exact {exact}",
                    )
                )
        checks.append(
            (
                abs(empirical_mixed_moment(grid, 1, 1) - 3) < 1e-3,
                f"{text}: (1,1) -> 3",
            )
        )
        checks.append(
            (
                abs(empirical_mixed_moment(grid, 3, 0) - want30) < 1e-4,
                f"{text}: (3,0) -> {want30}",
            )
        )
    _report(3, "moment stationarity on full grids", started, 60.0, checks)


def test_criterion_4_kloosterman_equidistribution():
    started = time.time()
    checks = []
    g = IntPoly.parse("X^3-9X-1")
    grid = trace_sum_grid(g, 8089, r=2, mode="dilate")
    checks.append(
        (np.abs(grid.values.imag).max() < 1e-9, "grid values real to 1e-9")
    )
    second = (grid.values.real**2).mean()
    checks.append((abs(second - 3) < 0.1, f"second moment {second:.4f} = 3 +- 0.1"))
    oracle = sato_tate_sum_samples(3, 10**6, 42)
    ks = ks_distance(grid.values.real, oracle.samples)
    checks.append((ks <= 0.05, f"KS {ks:.4f} <= 0.05 vs 3-iid Sato-Tate sum"))
    _report(4, "Kloosterman trace grid vs Sato-Tate sum", started, 300.0, checks)


def test_criterion_5_planar_law_match():
    started = time.time()
    checks = []
    for text, q, seed in [("X^3+2X^2+3", 30113, 5), ("X^3+X+3", 30223, 6)]:
        g = IntPoly.parse(text)
        grid = additive_sum_grid(g, q)
        h = torus_subgroup(additive_relations(g))
        sig = sigma_samples(h, 10**6, seed)
        dist = binned_l1_2d(grid.values, sig.samples, 40, bound=3.0)
        checks.append((dist <= 0.08, f"{text}@{q}: binned L1 {dist:.4f} <= 0.08"))
    _report(5, "planar limit-law match for the additive grids", started, 300.0, checks)


def test_criterion_6_conditioning():
    started = time.time()
    checks = []
    g = IntPoly.parse("X^3+X^2+2X+1")
    q = _split_primes_from(g, 100000, 1, hi=110000)[0]
    half = make_condition_set(q, 1, "interval:0.5")
    module = additive_relations(g)
    rep = conditioning_experiment(g, q, 1, half, [[1, 1, 1]], module)
    um = rep["uniformity_metric"]
    checks.append((abs(um - 0.6366) < 0.01, f"uniformity {um:.4f} = 0.6366 +- 0.01"))
    w = complex(rep["weyl"][0]["value_re"], rep["weyl"][0]["value_im"])
    checks.append(
        (
            abs(abs(w) - 2 / math.pi) < 0.02,
            f"restricted Weyl modulus {abs(w):.4f} = 2/pi +- 0.02 (non-vanishing)",
        )
    )
    image = make_condition_set(q, 1, "image:X^2")
    rep2 = conditioning_experiment(
        g, q, 1, image, [[1, 0, 0], [0, 1, -1], [2, 1, 0], [1, 1, 1]], module
    )
    for entry in rep2["weyl"]:
        if entry["in_Rg"]:
            continue
        mod = abs(complex(entry["value_re"], entry["value_im"]))
        checks.append(
            (
                mod <= 5 / math.sqrt(q),
                f"image subset: |Weyl({entry['alpha']})| = {mod:.5f} <= 5/sqrt(q)",
            )
        )
    _report(6, "conditioning on restricted parameter sets", started, 120.0, checks)


def test_criterion_7_multiplicative_degeneracy():
    started = time.time()
    checks = []
    grid = mult_char_sum_grid(IntPoly.parse("X^3-1"), 13)
    eq3 = int(np.sum(np.abs(grid.values - 3) < 1e-9))
    zeros = int(np.sum(np.abs(grid.values) < 1e-9))
    checks.append((eq3 == 4, f"q=13: {eq3} character sums equal 3 (want 4)"))
    checks.append((zeros == 8, f"q=13: {zeros} vanish (want 8)"))
    grid = mult_char_sum_grid(IntPoly.parse("X^3-1"), 31)
    eq3 = int(np.sum(np.abs(grid.values - 3) < 1e-9))
    checks.append((eq3 == 10, f"q=31: {eq3} character sums equal 3 (want 10)"))
    _report(7, "multiplicative degeneracy for X^3-1", started, 1.0, checks)


def test_criterion_8_sampler_self_consistency():
    started = time.time()
    checks = []
    # torus character orthogonality
    g = IntPoly.parse("X^6-1")
    module = additive_relations(g)
    h = torus_subgroup(module)
    n = 100000
    z = h.sample(n, 2025)
    for row in module.basis:
        dev = np.abs(np.prod(z ** np.array(row), axis=1) - 1.0).max()
        checks.append((dev < 1e-12, f"orthogonality on {list(row)}: dev {dev:.2e}"))
    rng = philox_generator(2025, "offrel")
    tested = 0
    while tested < 8:
        beta = rng.integers(-3, 4, size=6)
        if not beta.any() or module.contains([int(b) for b in beta]):
            continue
        mean = abs(np.prod(z ** beta, axis=1).mean())
        checks.append((mean <= 5 / math.sqrt(n), f"off-relation mean {mean:.4f}"))
        tested += 1
    # Sato-Tate moments at 1e6
    t = sato_tate_samples(10**6, 7).samples
    m2, m4 = (t**2).mean(), (t**4).mean()
    checks.append((abs(m2 - 1) < 0.02, f"E t^2 = {m2:.4f} = 1 +- 0.02"))
    checks.append((abs(m4 - 2) < 0.05, f"E t^4 = {m4:.4f} = 2 +- 0.05"))
    # USp(2) trace law vs Sato-Tate
    usp = haar_trace_samples("USp(2)", 10**5, 8)
    st = sato_tate_samples(10**5, 9)
    ks = ks_distance(usp.samples.real, st.samples)
    checks.append((ks <= 0.01, f"USp(2) vs Sato-Tate KS {ks:.4f} <= 0.01"))
    # Kl_3 conjugation symmetry at 100 random (a, q)
    qs = [q for q in range(50, 400) if is_prime(q)]
    rng = philox_generator(2025, "kl3")
    worst = 0.0
    for _ in range(100):
        q = qs[int(rng.integers(0, len(qs)))]
        a = int(rng.integers(1, q))
        diff = abs(
            hyper_kloosterman(3, q - a, q) - hyper_kloosterman(3, a, q).conjugate()
        )
        worst = max(worst, diff)
    checks.append((worst < 1e-9, f"Kl3 conjugation symmetry, worst dev {worst:.2e}"))
    _report(8, "sampler self-consistency", started, 120.0, checks)


def test_criterion_9_higher_rank_kloosterman():
    """Sum_i Kl_r(a*x_i) over the roots of X^3-9X-1 against a sum of three
    independent Haar traces: SU(3) for r = 3, USp(4) for r = 4 (Katz).

    Tolerance rule, fixed before the grid is computed: each statistic must
    be at most twice the same statistic between two independent sampler
    sets of the grid's size.  The grid is then compared with a third
    sampler set of that size, so it is held to the spread of the sampler
    against itself.
    """
    started = time.time()
    checks = []
    g = IntPoly.parse("X^3-9X-1")
    q = 10099  # split, and the only prime used here
    d, n = g.degree, q - 1

    def traces(group, seed):
        return haar_trace_samples(group, d * n, seed).samples.reshape(d, n).sum(axis=0)

    for r, group, stats in [
        (3, "SU(3)", ("binned L1",)),
        (4, "USp(4)", ("binned L1", "KS on the real part")),
    ]:
        bound = float(r * d)  # Deligne: |Kl_r| <= r

        def statistic(name, a, b):
            if name == "binned L1":
                return binned_l1_2d(a, b, 40, bound=bound)
            return ks_distance(a.real, b.real)

        first, second, third = (traces(group, seed) for seed in (91, 92, 93))
        tolerances = {name: 2 * statistic(name, first, second) for name in stats}
        values = trace_sum_grid(g, q, r=r, mode="dilate").values
        if r % 2 == 0:
            checks.append(((values.imag == 0).all(), f"r={r}: grid exactly real"))
        mean_square = (np.abs(values) ** 2).mean()
        checks.append(
            (abs(mean_square - d) < 0.1, f"r={r}: E|S|^2 = {mean_square:.4f} = {d} +- 0.1")
        )
        for name in stats:
            got = statistic(name, values, third)
            checks.append(
                (
                    got <= tolerances[name],
                    f"r={r} vs {d} {group} traces: {name} {got:.4f} <= {tolerances[name]:.4f}",
                )
            )
    _report(9, "higher-rank Kloosterman grids vs Haar trace sums", started, 60.0, checks)
