"""Limit-law samplers: torus Haar measure, exact moments, Sato-Tate,
compact-group traces, involution-constrained sums."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ultrashort import sums
from ultrashort.arith import IntPoly
from ultrashort.errors import InvalidPairing, OutOfRangeParameter, TooLarge
from ultrashort.limitlaw import (
    MomentTable,
    SampleBatch,
    _cmv_trace,
    _sato_tate,
    exact_mixed_moment,
    haar_trace_samples,
    involution_sum_samples,
    philox_generator,
    sato_tate_samples,
    sato_tate_sum_samples,
    sigma_samples,
    torus_subgroup,
)
from ultrashort.relations import RelationModule, additive_relations
from ultrashort.stats import ks_distance


def _module(d, rows):
    from ultrashort.lattice import hnf_rows

    return RelationModule(d, tuple(tuple(r) for r in hnf_rows(rows)), "additive", {})


# ---------------------------------------------------------------------------
# torus subgroup


@pytest.mark.parametrize(
    "d,rows,v",
    [
        # X^3+X+3
        (3, [[1, 1, 1]], [[1, -1, -1], [0, 1, 0], [0, 0, 1]]),
        # X^5-1
        (
            5,
            [[1, 1, 1, 1, 1]],
            [
                [1, -1, -1, -1, -1],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ],
        ),
        # X^5-1 with v = X+X^-1
        (
            5,
            [[1, 1, 0, 2, 1], [0, 2, 0, 2, 1], [0, 0, 1, -1, 0]],
            [
                [1, -1, 0, -1, 1],
                [0, 0, 0, -1, 1],
                [0, 0, 1, 1, 0],
                [0, 0, 0, 1, 0],
                [0, 1, 0, 0, -2],
            ],
        ),
    ],
)
def test_torus_v_matrix_is_pinned(d, rows, v):
    """Seeded sigma samples are theta = V psi, so V must not drift."""
    h = torus_subgroup(_module(d, rows))
    assert h.invariant_factors == (1,) * len(rows)
    assert h.v_matrix.tolist() == v


def test_torus_trivial_module_is_full_torus():
    h = torus_subgroup(_module(3, []))
    assert h.free_coordinates == 3
    z = h.sample(1000, 1)
    assert z.shape == (1000, 3)
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


def test_torus_all_ones_relation_determines_last_coordinate():
    h = torus_subgroup(_module(3, [[1, 1, 1]]))
    assert h.free_coordinates == 2
    assert h.invariant_factors == (1,)
    z = h.sample(2000, 5)
    assert np.abs(np.prod(z, axis=1) - 1.0).max() < 1e-12


def test_torus_factor_two_gives_sign_coordinate():
    h = torus_subgroup(_module(2, [[2, 0]]))
    assert h.invariant_factors == (2,)
    z = h.sample(4000, 9)
    first = z[:, 0]
    assert np.abs(first.imag).max() < 1e-12
    signs = np.sign(first.real)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert abs(signs.mean()) < 0.1  # both signs drawn uniformly
    # second coordinate genuinely spreads over the circle
    assert np.abs(z[:, 1].imag).max() > 0.9


def test_torus_character_orthogonality():
    g = IntPoly.parse("X^6-1")
    module = additive_relations(g)
    h = torus_subgroup(module)
    n = 40000
    z = h.sample(n, 3)
    for row in module.basis:
        vals = np.prod(z ** np.array(row), axis=1)
        assert np.abs(vals - 1.0).max() < 1e-12
    rng = philox_generator(99, "test-offrel")
    checked = 0
    while checked < 20:
        beta = rng.integers(-3, 4, size=6)
        if not beta.any() or module.contains([int(b) for b in beta]):
            continue
        mean = np.prod(z ** beta, axis=1).mean()
        assert abs(mean) <= 5 / math.sqrt(n)
        checked += 1


def test_sigma_full_circle_mean():
    h = torus_subgroup(_module(1, []))
    batch = sigma_samples(h, 40000, 2)
    assert abs(batch.samples.mean()) <= 3 / math.sqrt(len(batch))


def test_sigma_second_moment_is_degree():
    for text in ["X^3+X+3", "X^3+2X^2+3", "X^5-1"]:
        g = IntPoly.parse(text)
        h = torus_subgroup(additive_relations(g))
        n = 100000
        batch = sigma_samples(h, n, 4)
        m2 = (np.abs(batch.samples) ** 2).mean()
        assert abs(m2 - g.degree) <= 5 * g.degree / math.sqrt(n)


def test_sigma_hypocycloid_support():
    # H = <(1,1,1)>^perp: sigma lands in {u + v + 1/(uv)}; two routes:
    # (a) z3 = 1/(z1 z2) reconstruction, (b) the companion-eigenvalue
    # criterion: lambda^3 - z lambda^2 + conj(z) lambda - 1 has unimodular
    # roots exactly on the region
    h = torus_subgroup(_module(3, [[1, 1, 1]]))
    z = h.sample(20000, 8)
    sigma = z.sum(axis=1)
    rebuilt = z[:, 0] + z[:, 1] + 1 / (z[:, 0] * z[:, 1])
    assert np.abs(sigma - rebuilt).max() < 1e-9
    comp = np.zeros((len(sigma), 3, 3), dtype=np.complex128)
    comp[:, 1, 0] = 1
    comp[:, 2, 1] = 1
    comp[:, 0, 2] = 1
    comp[:, 1, 2] = -np.conj(sigma)
    comp[:, 2, 2] = sigma
    eig = np.linalg.eigvals(comp)
    assert np.abs(np.abs(eig) - 1.0).max() < 1e-6


def test_sigma_batch_deterministic():
    h = torus_subgroup(_module(2, []))
    a = sigma_samples(h, 100, 7).samples
    b = sigma_samples(h, 100, 7).samples
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "poly, rows, digest",
    [
        ("X^3+X+3", None, "69775073f230a749678c038daea7cb294fdb811cdf932c73fae28f84329cfe7f"),
        ("X^3+2X^2+3", None, "195945cf8039b09829690d6cff4196835895a13826c97d784ed4cbf9db0cefdc"),
        ("X^5-1", None, "0c65095c6dfe6bf77c21eadb3193019fc9f5c7bb91f88746e60a92b8579b996a"),
        (None, [[2, 0, 0], [1, 1, 1]],
         "00920c4776d492d2e39e60004f91bca7fe33149abc473a8e12d6e453cf4549be"),
    ],
    ids=["rank-1", "rank-0", "d-5", "invariant-factor-2"],
)
def test_sigma_blocks_are_bitwise_unblocked(poly, rows, digest, monkeypatch):
    """With 64-row blocks, counts of one row, a partial block, one block,
    one block and a row, and several blocks give the bytes that
    h.sample(count, seed).sum(axis=1) gave before the blocks (digests taken
    then)."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    module = additive_relations(IntPoly.parse(poly)) if poly else _module(3, rows)
    h = torus_subgroup(module)
    batches = [sigma_samples(h, count, 11).samples for count in (1, 63, 64, 65, 3 * 64 + 7)]
    for batch in batches[1:]:
        assert np.array_equal(batch, h.sample(len(batch), 11).sum(axis=1))
    assert hashlib.sha256(b"".join(b.tobytes() for b in batches)).hexdigest() == digest


def test_torus_samplers_are_pinned():
    """sample_angles and sample keep their bytes through the shared theta helper."""
    h = torus_subgroup(_module(3, [[2, 0, 0], [1, 1, 1]]))
    assert h.invariant_factors == (1, 2)
    blob = h.sample_angles(199, 11).tobytes() + h.sample(199, 11).tobytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "c2b60eaa66f9e91e5eaeb3e54e52651d6125bf653828acbaedde22b1c1276f28"
    )


def test_sigma_reduction_equals_mod_one(monkeypatch):
    """theta - floor(theta), the blocked reduction, is theta % 1.0 bit for
    bit, on signed zeros, tiny and near-integer angles, 2^52 + 0.5 and
    random theta, in several blocks."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    special = [0.0, -0.0, 1e-300, -1e-300, -1.0, 1 - 2.0**-53, -(1 - 2.0**-53), 2.0**52 + 0.5]
    rng = philox_generator(12, "mod-one")
    theta = rng.normal(scale=50.0, size=(3 * 64 + 7, 3))
    theta[60:68, 0] = special  # rows 60..67 straddle the first block edge
    theta[60:68, 2] = special[::-1]
    t = theta.ravel()
    assert np.array_equal((t - np.floor(t)).view(np.int64), (t % 1.0).view(np.int64))
    h = torus_subgroup(_module(3, []))
    blocks = ((start, theta[start : start + 64]) for start in range(0, len(theta), 64))
    monkeypatch.setattr(h, "_theta_blocks", lambda count, seed: blocks)
    got = sigma_samples(h, len(theta), 0).samples
    want = np.exp(2j * np.pi * (theta % 1.0)).sum(axis=1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigma_samples_hold_no_full_size_temporary():
    """The traced peak of sigma_samples(h, 2^18, s) at d = 3 and d = 5 stays
    below its output, one byte a row for each torsion column, the block
    arrays (32 d + 40 bytes a row: the complex buffer, theta, the free
    coordinates, psi, the term and one int64 torsion draw) and 256 KiB.
    With theta = psi @ V.T over the whole count it peaked at 12.0 MiB (d = 3)
    and 20.0 MiB (d = 5); with theta blocks but each torsion column drawn
    whole as int64, at 7.0 and 7.5 MiB; with the torsion columns drawn in
    blocks too, at 6.07 and 7.07 MiB."""
    count = 1 << 18
    for poly in ("X^3+X+3", "X^5-1"):
        h = torus_subgroup(additive_relations(IntPoly.parse(poly)))
        sigma_samples(h, 16, 3)  # one-time allocations of the first call
        tracemalloc.start()
        try:
            batch = sigma_samples(h, count, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (batch.samples.nbytes + count * len(h.invariant_factors)
                 + sums._BLOCK_ROWS * (32 * h.d + 40) + 2**18)
        assert peak < bound, (poly, peak, bound)


@pytest.mark.parametrize("s", [2, 3, 5, 7, 255, 256, 1000, 65537, 2**31 + 11])
def test_blocked_integer_draws_continue_the_stream(s):
    """integers(0, s, n) drawn in blocks (of 64 rows, the last one short)
    gives the int64 values of one unblocked call, and the random() draws
    after it are the same doubles, so _theta_blocks may draw its torsion
    columns block by block."""
    count = 1000
    whole = philox_generator(9, "torus")
    want = whole.integers(0, s, size=count)
    blocked = philox_generator(9, "torus")
    got = np.concatenate([blocked.integers(0, s, size=min(64, count - i))
                          for i in range(0, count, 64)])
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert blocked.random(99).tolist() == whole.random(99).tolist()


def test_theta_is_the_left_to_right_sum_on_every_machine(monkeypatch):
    """sample_angles is theta_j = sum_k psi_k * V_jk added in ascending k in
    Python floats, reduced mod 1, bit for bit: V has entries 2, 3 and 4,
    whose products round, so a fused multiply-add or another summation order
    (a BLAS product) changes about 2% of the angles."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    h = torus_subgroup(_module(4, [[1, 2, 3, 4]]))
    assert {2.0, 3.0, 4.0} <= set(np.abs(h.v_matrix).ravel())
    count, seed = 20000, 5
    rng = philox_generator(seed, "torus")
    r = len(h.invariant_factors)
    torsion = [(rng.integers(0, s, size=count) / s).tolist() for s in h.invariant_factors]
    free = rng.random((count, h.d - r)).tolist()
    v = h.v_matrix.tolist()
    want = []
    for n in range(count):
        psi = [col[n] for col in torsion] + free[n]
        for row in v:
            acc = psi[0] * row[0]
            for k in range(1, h.d):
                acc += psi[k] * row[k]
            want.append(acc % 1.0)
    got = h.sample_angles(count, seed)
    assert np.array_equal(got.ravel().view(np.int64), np.array(want).view(np.int64))


# ---------------------------------------------------------------------------
# exact mixed moments


def _brute_moment(module, m, n):
    d = module.ambient_rank
    count = 0
    for tup in itertools.product(range(d), repeat=m + n):
        w = [0] * d
        for i in tup[:m]:
            w[i] += 1
        for j in tup[m:]:
            w[j] -= 1
        if module.contains(w):
            count += 1
    return count


@pytest.mark.parametrize(
    "rows,d",
    [([], 3), ([[1, 1, 1]], 3), ([[1, -1, 0]], 3), ([[2, 0], [0, 1]], 2)],
)
def test_exact_moment_matches_brute_force(rows, d):
    module = _module(d, rows)
    for m in range(4):
        for n in range(4 - m):
            assert exact_mixed_moment(module, m, n) == _brute_moment(module, m, n)


def test_exact_moment_fixture_values():
    trivial = _module(3, [])
    allones = _module(3, [[1, 1, 1]])
    assert exact_mixed_moment(trivial, 1, 1) == 3
    assert exact_mixed_moment(allones, 1, 1) == 3
    assert exact_mixed_moment(allones, 3, 0) == 6
    assert exact_mixed_moment(trivial, 3, 0) == 0
    assert exact_mixed_moment(trivial, 2, 2) == 15


def test_exact_moment_conjugation_symmetry():
    for rows, d in [([], 3), ([[1, 1, 1]], 3), ([[1, -1, 0], [0, 2, 0]], 3)]:
        module = _module(d, rows)
        for m in range(4):
            for n in range(4 - m):
                assert exact_mixed_moment(module, m, n) == exact_mixed_moment(
                    module, n, m
                )


def test_exact_moment_too_large():
    with pytest.raises(TooLarge):
        exact_mixed_moment(_module(10, []), 5, 4)


def test_sigma_moments_match_exact_oracle():
    g = IntPoly.parse("X^3+X+3")
    module = additive_relations(g)
    h = torus_subgroup(module)
    n = 200000
    s = sigma_samples(h, n, 13).samples
    for m, k in [(1, 1), (2, 2), (3, 0), (2, 0)]:
        emp = (s**m * np.conj(s) ** k).mean()
        exact = exact_mixed_moment(module, m, k)
        bound = 6 * max(1, abs(exact)) / math.sqrt(n) + 0.05
        assert abs(emp - exact) <= bound, (m, k, emp, exact)


def test_moment_table_json():
    t = MomentTable({(1, 1): 3, (2, 0): 0})
    assert t.to_json_dict() == {"(1,1)": 3, "(2,0)": 0}


# ---------------------------------------------------------------------------
# Sato-Tate


def _gaussian_sato_tate(count, seed):
    """Reference Sato-Tate draws by the Gaussian route: the trace 2*x_0/|x|
    of the uniform point x/|x| of S^3 = SU(2), x standard Gaussian in R^4."""
    x = philox_generator(seed, "sato-tate-reference").standard_normal((4, count))
    return 2.0 * x[0] / np.linalg.norm(x, axis=0)


def test_sato_tate_moments_and_support():
    """The disc construction against the Gaussian one (two-sample KS at
    significance 1e-4), E t^(2k) against the Catalan numbers and the odd
    moments against 0 (each within 5 standard errors), and |t| <= 2."""
    n = 10**6
    t = sato_tate_samples(n, 21).samples
    assert np.abs(t).max() <= 2.0
    ks_bound = math.sqrt(-math.log(1e-4 / 2) / n)  # two samples of n at significance 1e-4
    assert ks_distance(t, _gaussian_sato_tate(n, 21)) <= ks_bound
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for k in range(1, 5):
        even = math.sqrt((catalan[2 * k] - catalan[k] ** 2) / n)
        assert abs((t ** (2 * k)).mean() - catalan[k]) <= 5 * even
        assert abs((t ** (2 * k - 1)).mean()) <= 5 * math.sqrt(catalan[2 * k - 1] / n)


def test_sato_tate_sum_holds_no_gaussian_scratch():
    """The traced peak of sato_tate_sum_samples(3, 10^6, s) stays at most
    17 MB: the sum, one reused scratch term and one block of angles.  The
    Gaussian sampler peaked at 91.6 MB, the disc one with a count-sized
    angle row per term at 24 MB."""
    tracemalloc.start()
    try:
        sato_tate_sum_samples(3, 10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 10**6


@pytest.mark.parametrize(
    "draw",
    [lambda n: sato_tate_samples(n, 5), lambda n: haar_trace_samples(("SU", 2), n, 5),
     lambda n: haar_trace_samples(("USp", 2), n, 5)],
    ids=["st", "su2", "usp2"],
)
def test_sato_tate_samples_hold_one_block_of_angles(draw):
    """The traced peak of 10^6 Sato-Tate draws, as st or as rank-2 Haar
    traces, stays at most 9 MB: the output and one block of angles (16 MB
    with a count-sized angle row; 40 MB and 104 MB for the beta and CMV
    rank-2 draws)."""
    tracemalloc.start()
    try:
        draw(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 10**6


@pytest.mark.parametrize(
    "terms, digest",
    [(None, "d4863668e843b1e3cd827559f66c69ce55ed9b71e6595e7f6b61176eed7d9fb0"),
     (3, "b8319c3c19045799da9a2aa4b7626fba13bbb1ab03b89ef447df8c23add06e5e")],
    ids=["st", "st-sum-3"],
)
def test_sato_tate_blocks_are_bitwise_unblocked(terms, digest, monkeypatch):
    """With 64-row blocks, counts of one row, a partial block, one block,
    one block and a row, and several blocks give the bytes of the unblocked
    sampler (digests taken from two whole random(count) rows per term)."""
    monkeypatch.setattr(sums, "_BLOCK_ROWS", 64)
    counts = (1, 63, 64, 65, 3 * 64 + 7)
    if terms is None:
        batches = [sato_tate_samples(count, 11) for count in counts]
    else:
        batches = [sato_tate_sum_samples(terms, count, 11) for count in counts]
    blob = b"".join(b.samples.tobytes() for b in batches)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_sato_tate_deterministic():
    a = sato_tate_samples(50, 5).samples
    b = sato_tate_samples(50, 5).samples
    assert np.array_equal(a, b)


def test_sato_tate_sum_components_independent():
    s = sato_tate_sum_samples(3, 200000, 17).samples
    assert np.all(np.abs(s) <= 6.0)
    assert abs((s**2).mean() - 3.0) < 0.05  # variance adds across terms


def test_sato_tate_sum_single_term_is_sato_tate():
    a = sato_tate_sum_samples(1, 1000, 11).samples
    b = sato_tate_samples(1000, 11).samples
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [0, -5])
def test_sato_tate_sum_rejects_bad_count(count):
    with pytest.raises(OutOfRangeParameter):
        sato_tate_sum_samples(3, count, 1)


# ---------------------------------------------------------------------------
# Haar traces


def test_usp2_matches_sato_tate():
    usp = haar_trace_samples("USp(2)", 100000, 5)
    assert np.abs(usp.samples.imag).max() < 1e-12
    st = sato_tate_samples(100000, 6)
    assert ks_distance(usp.samples.real, st.samples) <= 0.01


@pytest.mark.parametrize("name", ["SU", "USp"])
def test_rank_two_haar_traces_are_the_sato_tate_sampler(name):
    """SU(2) = USp(2): rank 2 of either group is _sato_tate on the group's
    own stream, float64 and bit for bit."""
    n = 1000
    t = haar_trace_samples((name, 2), n, 8).samples
    want = _sato_tate(np.empty(n), philox_generator(8, f"haar-{name}2"))
    assert t.dtype == np.float64 and t.tobytes() == want.tobytes()


def test_su3_trace_second_moment():
    batch = haar_trace_samples("SU(3)", 100000, 7)
    assert np.abs(batch.samples).max() <= 3.0 + 1e-9
    assert abs((np.abs(batch.samples) ** 2).mean() - 1.0) <= 0.05


def test_su_matrices_have_unit_determinant_effect():
    # SU(1) is trivial: trace always 1
    ones = haar_trace_samples(("SU", 1), 100, 3)
    assert np.allclose(ones.samples, 1.0)


def test_su2_traces_are_exactly_real():
    t = haar_trace_samples(("SU", 2), 100000, 4).samples
    assert np.all(t.imag == 0) and not np.signbit(t.imag).any()
    with pytest.raises(OutOfRangeParameter):  # the pairing forces conjugates for odd r only
        involution_sum_samples(3, [(0, 2)], 2, 1000, 4)


def _cmv_matrix(alpha):
    """Dense CMV matrix L*M of one coefficient vector: the block of index k
    goes into L for even k and into M for odd k, and M[0, 0] = 1."""
    n = len(alpha)
    lm = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    lm[1][0, 0] = 1.0
    for k, a in enumerate(alpha):
        factor = lm[k % 2]
        if k == n - 1:
            factor[k, k] = np.conj(a)
        else:
            rho = math.sqrt(1 - abs(a) ** 2)
            factor[k : k + 2, k : k + 2] = [[np.conj(a), rho], [rho, -a]]
    return lm[0] @ lm[1]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_cmv_trace_and_determinant_formulas(n):
    rng = np.random.default_rng(n)
    alpha = np.exp(2j * np.pi * rng.random(n)) * rng.random(n)
    alpha[-1] /= abs(alpha[-1])
    c = _cmv_matrix(alpha)
    assert np.abs(np.conj(c.T) @ c - np.eye(n)).max() < 1e-12
    assert abs(_cmv_trace(alpha[:, None])[0] - np.trace(c)) < 1e-12
    assert abs(np.linalg.det(c) - (-1) ** (n - 1) * np.conj(alpha[-1])) < 1e-12


def _assert_mean(values, exact):
    """Sample mean within 5 standard errors (estimated from the sample)."""
    se = values.std() / math.sqrt(len(values))
    assert abs(values.mean() - exact) <= 5 * se, (values.mean(), exact, se)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_su_trace_moments_are_exact(r):
    """E|T|^2k = k! for k <= r (Diaconis-Shahshahani) and E T^r = 1 (the
    one SU(r)-invariant line, the determinant, in V^(tensor r))."""
    t = haar_trace_samples(("SU", r), 200000, 21).samples
    for k in range(1, r + 1):
        _assert_mean(np.abs(t) ** (2 * k), math.factorial(k))
    _assert_mean((t**r).real, 1.0)
    _assert_mean((t**r).imag, 0.0)


@pytest.mark.parametrize(
    "r, m4, m6", [(2, 2, 5), (4, 3, 14), (6, 3, 15), (8, 3, 15)]
)
def test_usp_trace_moments_are_exact(r, m4, m6):
    t = haar_trace_samples(("USp", r), 200000, 22).samples
    assert t.dtype == np.float64 and np.all(t.imag == 0)
    _assert_mean(t**2, 1.0)
    _assert_mean(t**4, m4)
    _assert_mean(t**6, m6)


def _qr_su_traces(r, count, rng):
    """Reference SU(r) traces from whole matrices: QR of a complex Ginibre
    matrix with the R-diagonal phase fix, scaled by det^(-1/r)."""
    z = rng.normal(size=(count, r, r)) + 1j * rng.normal(size=(count, r, r))
    qm, rm = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", rm)
    qm = qm * (diag / np.abs(diag))[:, None, :]
    return np.einsum("...ii->...", qm) * np.exp(-np.log(np.linalg.det(qm)) / r)


def _gram_schmidt_usp_traces(r, count, rng):
    """Reference USp(r) traces from whole matrices: quaternion Gram-Schmidt of
    Gaussian columns, each unit column v followed by its partner -J*conj(v)."""
    m = r // 2
    cols = []
    for _ in range(m):
        v = rng.normal(size=(count, r)) + 1j * rng.normal(size=(count, r))
        for _ in range(2):
            for c in cols:
                v = v - np.einsum("ij,ij->i", np.conj(c), v)[:, None] * c
        v = v / np.linalg.norm(v, axis=1)[:, None]
        w = np.concatenate([-np.conj(v[:, m:]), np.conj(v[:, :m])], axis=1)
        cols += [v, w]
    # column j of the matrix is v_j and column m + j is w_j
    return sum(cols[2 * j][:, j] + cols[2 * j + 1][:, m + j] for j in range(m))


def _ks_threshold(n, m, alpha=1e-4):
    """Two-sample KS critical value at significance alpha (asymptotic)."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


@pytest.mark.parametrize(
    "name, r, part",
    [("SU", 3, "real"), ("SU", 3, "imag"), ("SU", 5, "real"), ("USp", 4, "real"),
     ("USp", 8, "real")],
)
def test_haar_traces_match_the_matrix_constructions(name, r, part):
    n = 100000
    new = getattr(haar_trace_samples((name, r), n, 23).samples, part)
    old_traces = _qr_su_traces if name == "SU" else _gram_schmidt_usp_traces
    old = getattr(old_traces(r, n, philox_generator(24, "matrix")), part)
    assert ks_distance(new, old) <= _ks_threshold(n, n)


def test_haar_trace_rejects_bad_groups():
    with pytest.raises(OutOfRangeParameter):
        haar_trace_samples("USp(3)", 10, 1)  # odd symplectic rank
    with pytest.raises(OutOfRangeParameter):
        haar_trace_samples("SU(9)", 10, 1)
    with pytest.raises(OutOfRangeParameter):
        haar_trace_samples("SO(3)", 10, 1)


# ---------------------------------------------------------------------------
# involution-constrained sums


def test_involution_fully_paired_is_real():
    batch = involution_sum_samples(2, [(0, 1)], 3, 20000, 9)
    assert np.abs(batch.samples.imag).max() < 1e-12


def test_involution_unpaired_matches_iid_sum():
    n = 150000
    a = involution_sum_samples(3, [], 3, n, 11).samples
    parts = [haar_trace_samples(("SU", 3), n, 100 + k).samples for k in range(3)]
    b = parts[0] + parts[1] + parts[2]
    assert abs((np.abs(a) ** 2).mean() - (np.abs(b) ** 2).mean()) <= 5 * 3 / math.sqrt(n)
    assert abs(a.mean() - b.mean()) <= 5 / math.sqrt(n)


def test_involution_pair_agrees_with_direct_pipeline():
    # pipeline A: the involution sampler; pipeline B: 2*Re(Tr M) directly
    from ultrashort.limitlaw import _su_traces

    n = 150000
    a = involution_sum_samples(2, [(0, 1)], 3, n, 12).samples.real
    rng = philox_generator(55, "direct")
    b = 2 * _su_traces(3, n, rng).real
    assert abs((a**2).mean() - (b**2).mean()) <= 0.05
    assert ks_distance(a, b) <= 0.02


def test_involution_invalid_pairings():
    with pytest.raises(InvalidPairing):
        involution_sum_samples(3, [(0, 0)], 3, 10, 1)
    with pytest.raises(InvalidPairing):
        involution_sum_samples(3, [(0, 1), (1, 2)], 3, 10, 1)
    with pytest.raises(InvalidPairing):
        involution_sum_samples(2, [(0, 5)], 3, 10, 1)


@pytest.mark.parametrize(
    "r, count", [(0, 10), (-1, 10), (9, 10), (2, 0), (2, -5), (2, 10), (4, 10), (3, 0), (3, -5)]
)
def test_involution_rejects_bad_rank_and_count(r, count):
    with pytest.raises(OutOfRangeParameter):
        involution_sum_samples(2, [(0, 1)], r, count, 1)


def test_philox_streams_are_split():
    a = philox_generator(1, "op", 0).random(5)
    b = philox_generator(1, "op", 1).random(5)
    c = philox_generator(1, "other", 0).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, philox_generator(1, "op", 0).random(5))


def test_sample_batch_csv_text(tmp_path):
    """Floats are written as repr, -0.0, nan and inf included; a real batch
    writes 0.0 for im."""
    path = tmp_path / "batch.csv"
    z = [1, complex(0.5, -0.0), complex(-0.0, -0.0), complex(math.nan, math.inf), 1e-300 - 2.5j,
         0.1 + 0.2j]
    SampleBatch(np.array(z), 1, "complex").write_csv(path)
    assert path.read_text() == (
        "re,im\n1.0,0.0\n0.5,-0.0\n-0.0,-0.0\nnan,inf\n1e-300,-2.5\n0.1,0.2\n"
    )
    SampleBatch(np.array([-0.0, 2.0, 1 / 3]), 1, "real").write_csv(path)
    assert path.read_text() == "re,im\n-0.0,0.0\n2.0,0.0\n0.3333333333333333,0.0\n"
