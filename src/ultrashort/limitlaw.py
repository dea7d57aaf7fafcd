"""Samplers for the limiting measures and the exact mixed-moment oracle.

All randomness flows through a counter-based 64-bit generator (Philox) with
streams keyed by (seed, operation, stream index), so every sampler is a pure
function of its seed and identical across platforms and thread counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

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

    @property
    def real(self) -> np.ndarray:
        return np.real(self.samples)

    def write_csv(self, path) -> None:
        """`re,im` rows through the columnar sums.write_columns; a real batch
        (the Sato-Tate laws) writes its zero imaginary column as 0.0."""
        with open(path, "w") as fh:
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
    ones, then theta = V psi.
    """

    d: int
    relations: RelationModule
    v_matrix: np.ndarray
    invariant_factors: tuple[int, ...]

    @property
    def free_coordinates(self) -> int:
        return self.d - len(self.invariant_factors)

    def _theta(self, count: int, seed: int) -> np.ndarray:
        """(count, d) matrix of unreduced angles theta = V psi: the one place
        that draws psi, so every sampler of H uses the same stream."""
        rng = philox_generator(seed, "torus")
        r = len(self.invariant_factors)
        psi = np.empty((count, self.d), dtype=np.float64)
        for i, s in enumerate(self.invariant_factors):
            psi[:, i] = rng.integers(0, s, size=count) / s
        if self.d > r:
            psi[:, r:] = rng.random((count, self.d - r))
        return psi @ self.v_matrix.T

    def sample_angles(self, count: int, seed: int) -> np.ndarray:
        """(count, d) matrix of angles theta in [0,1)^d, Haar on H."""
        return self._theta(count, seed) % 1.0

    def sample(self, count: int, seed: int) -> np.ndarray:
        """(count, d) matrix of points z in H subset (S^1)^d."""
        return np.exp(2j * np.pi * self.sample_angles(count, seed))


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

    Bit for bit h.sample(count, seed).sum(axis=1), streamed: after the one
    product theta = V psi, each block of sums._BLOCK_ROWS rows is reduced,
    multiplied by 2*pi*i, exponentiated and summed in one reused complex
    (rows, d) buffer.  The reduction theta - floor(theta) equals theta % 1.0
    for every finite theta: numpy's remainder is fmod(theta, 1), which is
    exact, plus 1 when that is negative, so both sides are one rounding of
    the same real theta - floor(theta) (and +0.0 at integers).
    """
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    theta = h._theta(count, seed)
    out = np.empty(count, dtype=np.complex128)
    buf = np.empty((min(count, sums._BLOCK_ROWS), h.d), dtype=np.complex128)
    for start in range(0, count, len(buf)):
        t = theta[start : start + len(buf)]
        z = buf[: len(t)]
        np.floor(t, out=z.real)
        np.subtract(t, z.real, out=z.real)
        z.imag = 0.0
        np.multiply(2j * np.pi, z, out=z)
        np.exp(z, out=z)
        z.sum(axis=1, out=out[start : start + len(t)])
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


def _sato_tate(count: int, seed: int, index: int = 0) -> np.ndarray:
    """Exact Sato-Tate draws from the stream (seed, "sato-tate", index).

    A Sato-Tate variable is the trace of a Haar element of SU(2), and Haar
    on SU(2) is the uniform law on S^3; for a standard Gaussian x in R^4,
    x/|x| is uniform on S^3 and the trace is 2*x_0/|x|.
    """
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    x = philox_generator(seed, "sato-tate", index).standard_normal((4, count))
    return 2.0 * x[0] / np.linalg.norm(x, axis=0)


def sato_tate_samples(count: int, seed: int) -> SampleBatch:
    """Draws of 2*cos(theta) with density (2/pi) sin^2(theta) on [0, pi].

    Each draw is the trace 2*x_0/|x| of a uniform point of S^3 = SU(2),
    x standard Gaussian in R^4: exact, and a deterministic function of the
    seeded stream.
    """
    return SampleBatch(_sato_tate(count, seed), seed, "sato-tate")


def sato_tate_sum_samples(terms: int, count: int, seed: int) -> SampleBatch:
    """Draws of the sum of `terms` independent Sato-Tate variables.

    Term i is drawn as in sato_tate_samples from its own stream
    (seed, "sato-tate", i), so terms=1 reproduces sato_tate_samples.
    """
    if terms < 1:
        raise OutOfRangeParameter("terms must be >= 1")
    acc = _sato_tate(count, seed)
    for i in range(1, terms):
        acc += _sato_tate(count, seed, i)
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


def _su_traces(r: int, count: int, rng) -> np.ndarray:
    """Traces of Haar-random SU(r) matrices.

    U(r) Haar via QR of a complex Ginibre matrix with the R-diagonal phase
    fix; multiplying by det^(-1/r) (principal branch) lands Haar on SU(r),
    and only rescales the trace.
    """
    z = rng.normal(size=(count, r, r)) + 1j * rng.normal(size=(count, r, r))
    qm, rm = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", rm)
    qm = qm * (diag / np.abs(diag))[:, None, :]
    det = np.linalg.det(qm)
    scale = np.exp(-np.log(det) / r)
    return np.einsum("...ii->...", qm) * scale


def _usp_matrices(r: int, count: int, rng) -> np.ndarray:
    """Haar-random USp(r) matrices (r even), complex representation.

    Quaternion Gram-Schmidt: each accepted unit column v gets the partner
    -J*conj(v) (automatically a unit vector orthogonal to v and to all
    previously accepted pairs), which is exactly the column structure
    [[A, B], [-conj(B), conj(A)]] of the compact symplectic group.  Starting
    from Gaussian columns the construction is equivariant under left USp
    multiplication, hence Haar.
    """
    m = r // 2

    def partner(v):
        w = np.empty_like(v)
        w[:, :m] = -np.conj(v[:, m:])
        w[:, m:] = np.conj(v[:, :m])
        return w

    cols: list[np.ndarray] = []
    for _ in range(m):
        v = rng.normal(size=(count, r)) + 1j * rng.normal(size=(count, r))
        for _ in range(2):  # modified Gram-Schmidt, twice for stability
            for c in cols:
                proj = np.einsum("ij,ij->i", np.conj(c), v)
                v = v - proj[:, None] * c
        v = v / np.linalg.norm(v, axis=1)[:, None]
        cols.append(v)
        cols.append(partner(v))
    # columns are ordered (v_1..v_m, w_1..w_m)
    out = np.empty((count, r, r), dtype=np.complex128)
    for j in range(m):
        out[:, :, j] = cols[2 * j]
        out[:, :, m + j] = cols[2 * j + 1]
    return out


def _usp_traces(r: int, count: int, rng) -> np.ndarray:
    return np.einsum("...ii->...", _usp_matrices(r, count, rng))


def haar_trace_samples(group, count: int, seed: int) -> SampleBatch:
    """Draws of Tr(M) for M Haar on SU(r) or USp(r even), r <= 8."""
    name, r = _parse_group(group)
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    if r < 1 or r > 8:
        raise OutOfRangeParameter("rank must be between 1 and 8")
    rng = philox_generator(seed, f"haar-{name}{r}")
    if name == "SU":
        traces = _su_traces(r, count, rng)
    else:
        if r % 2:
            raise OutOfRangeParameter("USp needs even rank")
        traces = _usp_traces(r, count, rng)
    return SampleBatch(traces, seed, f"{name}({r})-trace")


def involution_sum_samples(
    d: int, pairs, r: int, count: int, seed: int
) -> SampleBatch:
    """Draws of sum_x Tr(f(x)) when x -> -x pairs roots and forces
    f(-x) = conj(f(x)): each pair contributes Tr(M) + conj(Tr(M)) for one
    Haar SU(r) class M, unpaired roots contribute independent classes."""
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    if r < 1:
        raise OutOfRangeParameter("rank must be >= 1")
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
    for k, _ in enumerate(pairs):
        rng = philox_generator(seed, "involution-pair", k)
        t = _su_traces(r, count, rng)
        total += t + np.conj(t)
    for k, _ in enumerate(unpaired):
        rng = philox_generator(seed, "involution-single", k)
        total += _su_traces(r, count, rng)
    return SampleBatch(total, seed, f"involution[d={d},pairs={len(pairs)},r={r}]")
