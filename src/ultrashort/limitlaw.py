"""Samplers for the limiting measures and the exact mixed-moment oracle.

All randomness flows through a counter-based 64-bit generator (Philox) with
streams keyed by (seed, operation, stream index), so every sampler is a pure
function of its seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import sums
from .errors import InvalidPairing, OutOfRangeParameter, TooLarge
from .lattice import smith_normal_form as _snf
from .relations import RelationModule
from .sums import write_columns

EXACT_MOMENT_CAP = 10**8


def philox_generator(seed: int, op: str, index: int = 0) -> np.random.Generator:
    """Deterministic, splittable stream keyed by (seed, op, index)."""
    digest = hashlib.sha256(f"{seed}|{op}|{index}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class SampleBatch:
    """Monte-Carlo draws from one law, reproducible from (seed, count, law)."""

    samples: np.ndarray
    seed: int
    law: str

    def __len__(self) -> int:
        return len(self.samples)

    def write_csv(self, path) -> None:
        """`re,im` rows through the columnar sums.write_columns; a real batch
        (the Sato-Tate and USp laws) writes its zero imaginary column as 0.0."""
        with sums.replacing(path) as fh:
            write_columns(fh, "re,im\n", self.samples.real, self.samples.imag)


@dataclass
class MomentTable:
    """Mixed moments keyed by (m, n); exact integers or empirical reals."""

    entries: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {}
        for (m, n), value in sorted(self.entries.items()):
            if isinstance(value, complex):
                value = [value.real, value.imag]
            out[f"({m},{n})"] = value
        return out


# ---------------------------------------------------------------------------
# the torus subgroup orthogonal to a relation module


@dataclass
class TorusSubgroup:
    """Closed subgroup H of (S^1)^d orthogonal to a relation module.

    With U*A*V = S the constraint A.theta in Z^r becomes s_i psi_i in Z for
    psi = V^-1 theta, so Haar on H is: psi_i = j_i/s_i with j_i uniform in
    [0, s_i) on the r torsion coordinates, uniform angles on the d-r free
    ones, then theta = V psi.  Every sampler of H reads theta from
    _theta_blocks, block by block, so none holds a (count, d) array besides
    its output, and each gives the bytes of one unblocked draw.
    """

    d: int
    relations: RelationModule
    v_matrix: np.ndarray
    invariant_factors: tuple[int, ...]

    @property
    def free_coordinates(self) -> int:
        return self.d - len(self.invariant_factors)

    def _theta_blocks(self, count: int, seed: int):
        """Yield (start, theta): the unreduced angles theta = V psi of rows
        start, start + 1, ... in blocks of sums._BLOCK_ROWS rows.  This is the
        one place that draws psi, so every sampler of H reads one stream, and
        theta is reused by the next block.

        The stream is read in the order of one unblocked draw: first each
        torsion column integers(0, s_i, count), in coordinate order (drawn as
        int64 in blocks, which continue the stream bit for bit, and held for
        the whole run as the smallest unsigned integers that fit s_i - 1, and
        divided by s_i as doubles per block, as numpy's integer true division
        does), then the free coordinates row by row, so each block's
        random((rows, d - r)) continues where the previous block stopped.
        theta_j is psi_k * V_jk summed with numpy multiply and add in
        ascending k over the nonzero V_jk: no BLAS and no fused multiply-add,
        so theta is the IEEE left-to-right sum on every machine.  A skipped
        term is an exact zero, which can change only the sign of a zero
        theta_j, and the reduction mod 1 maps both zeros to +0.0.
        """
        rng = philox_generator(seed, "torus")
        rows = min(count, sums._BLOCK_ROWS)
        torsion = []
        for s in self.invariant_factors:
            j = np.empty(count, dtype=np.min_scalar_type(s - 1))
            for start in range(0, count, sums._BLOCK_ROWS):
                block = j[start : start + sums._BLOCK_ROWS]
                block[:] = rng.integers(0, s, size=len(block))
            torsion.append((j, float(s)))
        free = np.empty((rows, self.d - len(torsion)))
        theta = np.empty((rows, self.d))
        term = np.empty(rows)
        for start in range(0, count, sums._BLOCK_ROWS):
            n = min(rows, count - start)
            psi = [np.divide(j[start : start + n], s) for j, s in torsion]
            psi += list(rng.random(out=free[:n]).T)
            t = theta[:n]
            for col, v in zip(t.T, self.v_matrix):
                first, *rest = np.flatnonzero(v)
                np.multiply(psi[first], v[first], out=col)
                for k in rest:
                    col += np.multiply(psi[k], v[k], out=term[:n])
            yield start, t

    def sample_angles(self, count: int, seed: int) -> np.ndarray:
        """(count, d) matrix of angles theta in [0,1)^d, Haar on H."""
        out = np.empty((count, self.d))
        for start, theta in self._theta_blocks(count, seed):
            np.remainder(theta, 1.0, out=out[start : start + len(theta)])
        return out

    def sample(self, count: int, seed: int) -> np.ndarray:
        """(count, d) matrix of points z in H subset (S^1)^d."""
        out = np.empty((count, self.d), dtype=np.complex128)
        for start, theta in self._theta_blocks(count, seed):
            _unit_points(theta, out[start : start + len(theta)])
        return out


def _unit_points(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fill z with exp(2*pi*i*(theta mod 1)) and return it.

    The reduction theta - floor(theta), done in z.real, equals theta % 1.0
    for every finite theta: numpy's remainder is fmod(theta, 1), which is
    exact, plus 1 when that is negative, so both sides are one rounding of
    the same real theta - floor(theta) (and +0.0 at integers).
    """
    np.floor(theta, out=z.real)
    np.subtract(theta, z.real, out=z.real)
    z.imag = 0.0
    np.multiply(2j * np.pi, z, out=z)
    return np.exp(z, out=z)


def torus_subgroup(module: RelationModule) -> TorusSubgroup:
    """The support H = R^perp of the limit law, with its Haar sampler."""
    d = module.ambient_rank
    if module.rank == 0:
        return TorusSubgroup(d, module, np.eye(d), ())
    snf = _snf([list(r) for r in module.basis])
    v = np.array(snf.V, dtype=np.float64)
    return TorusSubgroup(d, module, v, snf.invariant_factors)


def sigma_samples(h: TorusSubgroup, count: int, seed: int) -> SampleBatch:
    """Draws of sigma(z) = z_1 + ... + z_d with z Haar on H.

    Bit for bit h.sample(count, seed).sum(axis=1), streamed: each theta block
    of h._theta_blocks is reduced, multiplied by 2*pi*i, exponentiated and
    summed in one reused complex (rows, d) buffer.  Besides the output, the
    run holds the torsion columns (one byte a row for each invariant factor
    up to 256) and a few block-sized arrays, whatever the count.
    """
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    out = np.empty(count, dtype=np.complex128)
    buf = np.empty((min(count, sums._BLOCK_ROWS), h.d), dtype=np.complex128)
    for start, theta in h._theta_blocks(count, seed):
        z = _unit_points(theta, buf[: len(theta)])
        z.sum(axis=1, out=out[start : start + len(z)])
    return SampleBatch(out, seed, f"sigma[d={h.d},rank={h.relations.rank}]")


# ---------------------------------------------------------------------------
# exact mixed moments


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def exact_mixed_moment(module: RelationModule, m: int, n: int) -> int:
    """#{(i_1..i_m, j_1..j_n) in [d]^(m+n) : sum e_i - sum e_j in R}.

    This integer equals E[sigma(U)^m * conj(sigma(U))^n] for U Haar on
    H = R^perp (character orthogonality).  The enumeration over tuples is
    grouped by multiplicity vectors with multinomial weights, which is the
    same count; lattice membership is an HNF solve per vector.
    """
    if m < 0 or n < 0:
        raise OutOfRangeParameter("moment orders must be nonnegative")
    d = module.ambient_rank
    if d ** (m + n) > EXACT_MOMENT_CAP:
        raise TooLarge(f"d^(m+n) = {d ** (m + n)} exceeds {EXACT_MOMENT_CAP}")
    total = 0
    fact = math.factorial
    for u in _compositions(m, d):
        wu = fact(m)
        for c in u:
            wu //= fact(c)
        for v in _compositions(n, d):
            wv = fact(n)
            for c in v:
                wv //= fact(c)
            diff = [a - b for a, b in zip(u, v)]
            if module.contains(diff):
                total += wu * wv
    return total


# ---------------------------------------------------------------------------
# Sato-Tate and compact-group trace laws


def _sato_tate(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill out with exact Sato-Tate draws 2*sqrt(U0)*cos(2*pi*U1) from rng
    and return it.  The one Sato-Tate construction: sato_tate_sum_samples
    (st, st-sum:K) and haar_trace_samples at rank 2 (su:2, usp:2) call it.

    U0 is one random(out=out) draw, square-rooted in place; U1 follows in
    blocks of sums._BLOCK_ROWS, each drawn into one reused block array where
    the previous block stopped, so U0 and U1 are the doubles of two
    consecutive random(count) calls and each draw is the same double
    whatever the block size.  Besides out, only that block array is held.
    Proof of the law: for U0, U1 uniform on [0, 1), (sqrt(U0)*cos(2*pi*U1),
    sqrt(U0)*sin(2*pi*U1)) is uniform on the unit disc (its radius has
    density 2r), so its first coordinate x has density
    (2/pi)*sqrt(1 - x^2) on [-1, 1].  Then 2x has density
    (1/pi)*sqrt(1 - t^2/4) on [-2, 2], the image of the density
    (2/pi)*sin^2(theta) on [0, pi] under t = 2*cos(theta), which is the
    Sato-Tate law, that of the trace of a Haar SU(2) = USp(2) matrix.
    sqrt(U0) and |cos| are at most 1 after rounding and the doubling is
    exact, so every draw lies in [-2, 2].
    """
    np.sqrt(rng.random(out=out), out=out)
    angle = np.empty(min(len(out), sums._BLOCK_ROWS))
    for start in range(0, len(out), sums._BLOCK_ROWS):
        t = out[start : start + len(angle)]
        u = rng.random(out=angle[: len(t)])
        u *= 2.0 * np.pi
        t *= np.cos(u, out=u)
        t *= 2.0
    return out


def sato_tate_samples(count: int, seed: int) -> SampleBatch:
    """Draws of 2*cos(theta) with density (2/pi) sin^2(theta) on [0, pi]:
    the bytes of sato_tate_sum_samples(1, count, seed)."""
    return replace(sato_tate_sum_samples(1, count, seed), law="sato-tate")


def sato_tate_sum_samples(terms: int, count: int, seed: int) -> SampleBatch:
    """Draws of the sum of `terms` independent Sato-Tate variables.

    Term i is drawn by _sato_tate from its own stream (seed, "sato-tate", i).
    Terms 1, 2, ... are drawn into one reused scratch array and added to
    term 0 in that order, so the run holds the output, that count-sized
    scratch array and one block of angles.
    """
    if terms < 1:
        raise OutOfRangeParameter("terms must be >= 1")
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    acc = _sato_tate(np.empty(count), philox_generator(seed, "sato-tate"))
    scratch = np.empty(count) if terms > 1 else None
    for i in range(1, terms):
        acc += _sato_tate(scratch, philox_generator(seed, "sato-tate", i))
    return SampleBatch(acc, seed, f"sato-tate-sum[{terms}]")


def _parse_group(group) -> tuple[str, int]:
    if isinstance(group, (tuple, list)):
        name, r = str(group[0]), int(group[1])
    else:
        text = str(group).replace(" ", "")
        if "(" in text:
            name, rest = text.split("(", 1)
            r = int(rest.rstrip(")"))
        else:
            raise OutOfRangeParameter(f"cannot parse group {group!r}")
    name = name.upper().replace("USP", "USp")
    if name not in ("SU", "USp"):
        raise OutOfRangeParameter(f"unsupported group {name!r}")
    return name, r


def _check_rank_and_count(r: int, count: int) -> None:
    """The one domain check of both trace samplers: 1 <= r <= 8, count >= 1."""
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    if r < 1 or r > 8:
        raise OutOfRangeParameter("rank must be between 1 and 8")


def _cmv_trace(alpha: np.ndarray) -> np.ndarray:
    """Trace -sum_k a_{k-1} conj(a_k), a_{-1} = -1, of the CMV matrix of each
    column of the (N, count) Verblunsky coefficients alpha.

    C = L*M, L = T_0 + T_2 + ..., M = 1 + T_1 + T_3 + ... (direct sums of
    T_k = [[conj a_k, p_k], [p_k, -a_k]] on indices k, k+1, p_k^2 = 1 -
    |a_k|^2, and of the 1x1 conj(a_{N-1})).  The blocks of L and M holding
    index k overlap only in k, so C_kk = L_kk*M_kk = conj(a_k)*(-a_{k-1}).
    The N-1 blocks T_k have determinant -1: det C = (-1)^(N-1) conj(a_{N-1}).
    """
    trace = np.conj(alpha[0])
    trace -= (alpha[:-1] * np.conj(alpha[1:])).sum(axis=0)
    return trace


def _su_traces(r: int, count: int, rng) -> np.ndarray:
    """Traces of Haar SU(r) matrices from r Verblunsky coefficients.

    Killip and Nenciu (Matrix models for circular ensembles, IMRN 2004,
    Theorem 1, beta = 2): with a_0..a_{r-2} independent and rotation
    invariant, |a_k|^2 ~ Beta(1, r-k-1) (drawn as 1 - V^(1/(r-k-1))), and
    a_{r-1} uniform on the circle, the CMV eigenvalues have the law of those
    of a Haar U(r) matrix U, so (Tr C, det C) ~ (Tr U, det U).  U*det(U)^(-1/r)
    (principal branch) has determinant 1 and a law invariant under U -> SU
    for S in SU(r) (same determinant), so it is Haar on SU(r).

    SU(1) = {1} gives traces 1 + 0j.  Rank 2 never comes here: its traces
    are real and haar_trace_samples draws them with _sato_tate.
    """
    if r == 1:
        return np.ones(count, dtype=np.complex128)
    exponents = 1.0 / np.arange(r - 1, 0, -1.0)[:, None]
    modulus = np.sqrt(1.0 - rng.random((r - 1, count)) ** exponents)
    alpha = np.exp(2j * np.pi * rng.random((r, count)))
    alpha[:-1] *= modulus
    det = (-1) ** (r - 1) * np.conj(alpha[-1])
    return _cmv_trace(alpha) * np.exp(-np.log(det) / r)


def _usp_verblunsky(r: int, count: int, rng) -> np.ndarray:
    """(r, count) real Verblunsky coefficients whose CMV traces are traces of
    Haar USp(r) matrices, r = 2n.

    Killip and Nenciu (IMRN 2004, Theorem 2 at beta = 2, a = b = 1/2): for
    independent a_k ~ B(h + o, h - o), h = (r-k+1)/2, o = k mod 2 (their
    (2n-k-2)/2 + 3/2 twice for even k; (2n-k-3)/2 + 3 and (2n-k-1)/2 for
    odd k), a_{r-1} = -1, and B(s, t) the law of 1 - 2U, U ~ Beta(s, t),
    the CMV eigenvalues are e^(+-i theta_j), and x_j = 2 cos theta_j has
    density prod_{j<k} |x_j - x_k|^2 prod_j (4 - x_j^2)^(1/2): the USp(2n)
    Weyl density prod (cos theta_j - cos theta_k)^2 prod sin^2 theta_j after
    dx = -2 sin theta dtheta.  So Tr C = sum_j 2 cos theta_j is the USp(r)
    trace.  haar_trace_samples calls this for r >= 4 only.
    """
    alpha = np.full((r, count), -1.0)
    for k in range(r - 1):
        half, odd = (r - k + 1) / 2, k % 2
        alpha[k] = 1.0 - 2.0 * rng.beta(half + odd, half - odd, size=count)
    return alpha


def haar_trace_samples(group, count: int, seed: int) -> SampleBatch:
    """Draws of Tr(M) for M Haar on SU(r) or USp(r even), r <= 8: the laws of
    rank-r Kloosterman sums, USp(r) for even r and SU(r) for odd r (Katz,
    Gauss Sums, Kloosterman Sums, and Monodromy Groups, 1988).  SU(2) =
    USp(2): rank 2 of either group is drawn by _sato_tate, and every other
    rank is a CMV trace.  Traces are float64, but complex for SU(r != 2)."""
    name, r = _parse_group(group)
    _check_rank_and_count(r, count)
    if name == "USp" and r % 2:
        raise OutOfRangeParameter("USp needs even rank")
    rng = philox_generator(seed, f"haar-{name}{r}")
    if r == 2:
        traces = _sato_tate(np.empty(count), rng)
    elif name == "SU":
        traces = _su_traces(r, count, rng)
    else:
        traces = _cmv_trace(_usp_verblunsky(r, count, rng))
    return SampleBatch(traces, seed, f"{name}({r})-trace")


def involution_sum_samples(
    d: int, pairs, r: int, count: int, seed: int
) -> SampleBatch:
    """Draws of sum_x Tr(f(x)) when x -> -x pairs roots and forces
    f(-x) = conj(f(x)): each pair contributes Tr(M) + conj(Tr(M)) for one
    Haar SU(r) class M, unpaired roots contribute independent classes.

    Only odd r: conj Kl_r(a) = Kl_r((-1)^r * a), so the pairing forces
    conjugate values for odd r alone (Kl_2(1; 5) = 0.171 but
    Kl_2(-1; 5) = 1.171), and even r raises OutOfRangeParameter.
    """
    _check_rank_and_count(r, count)
    if r % 2 == 0:
        raise OutOfRangeParameter("the involution law needs odd rank")
    pairs = [(int(i), int(j)) for i, j in pairs]
    seen: set[int] = set()
    for i, j in pairs:
        if i == j or not (0 <= i < d and 0 <= j < d):
            raise InvalidPairing(f"bad pair ({i}, {j})")
        if i in seen or j in seen:
            raise InvalidPairing("pairing is not an involution: index reused")
        seen.update((i, j))
    unpaired = [i for i in range(d) if i not in seen]
    total = np.zeros(count, dtype=np.complex128)
    for k in range(len(pairs)):
        t = _su_traces(r, count, philox_generator(seed, "involution-pair", k))
        total += t + np.conj(t)
    for k in range(len(unpaired)):
        total += _su_traces(r, count, philox_generator(seed, "involution-single", k))
    return SampleBatch(total, seed, f"involution[d={d},pairs={len(pairs)},r={r}]")
