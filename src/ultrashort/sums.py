"""Finite-field sum families: additive-character grids, multi-parameter
samples, multiplicative-character grids, (hyper-)Kloosterman trace sums,
condition sets, Weyl sums and the uniformity metric.

Exponentials are always evaluated as e(k/N) with k reduced exactly in
integer arithmetic first.  A complete grid is one outer product: with
a = a1*m + a0 and m = ceil(sqrt(N)), e(a*w/N) = e(a1*(m*w mod N)/N) *
e(a0*w/N), and the d terms are added in root order.  Given sin and cos
within 1 ulp and d <= 10^6, each value is within d*(d + 43)*2^-53 of the
exact sum: per term, the argument 2*pi*k/N < 2*pi and cos, sin give
(6*pi + 2)*2^-53 per factor, the product sqrt(5)*2^-53 and the d - 1
additions (d - 1)*2^-53, with 0.06*2^-53 to spare for second-order terms.
Weyl sums over the full parameter space never touch floating point at all:
character orthogonality reduces them to an exact congruence.

_split_roots_each is the one root source of sums, stats and cli.  Its order
-- the roots mod q as ascending integers, each Newton-lifted in place to
q^n -- is the single labelling decision: grids add their terms in it, and
the alpha of every Weyl check indexes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (
    IntPoly,
    LaurentPoly,
    PrimePowerModulus,
    _dense_coeffs,
    _newton_lift,
    is_prime,
    multiplicative_generator,
    philox_generator,
    roots_mod_primes,
)
from .errors import (
    InvalidDescriptor,
    NonInvertibleRoot,
    NotSplit,
    OutOfRangeParameter,
    VanishingValue,
    ZeroRoot,
)

PARAM_SPACE_CAP = 1 << 26
# Rows per block of the streaming samplers (the torus theta blocks behind
# limitlaw.sigma_samples and TorusSubgroup.sample/sample_angles, the angles
# of limitlaw._sato_tate) and statistics kernels (stats.binned_l1_2d, the
# stats moment kernel): each block's temporaries, at most a few (rows, d)
# complex arrays, stay in cache, and no temporary grows with the sample
# count or grid size.
_BLOCK_ROWS = 1 << 14


@dataclass
class SumGrid:
    """A family a -> S(a) of complex sums over a residue parameter space.

    ambient_size is the size of the full space [0, ambient_size); `excluded`
    lists the non-lisse points left out, and `values` holds S(a) for the
    remaining parameters in ascending order.
    """

    ambient_size: int
    values: np.ndarray
    excluded: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    @property
    def params(self) -> np.ndarray:
        """The included parameters, ascending: [0, ambient_size) minus `excluded`."""
        return np.delete(np.arange(self.ambient_size, dtype=np.int64), list(self.excluded))

    @property
    def complete(self) -> bool:
        return not self.excluded

    def to_json_dict(self) -> dict:
        return dict(self.meta, excluded=[int(a) for a in self.excluded])


@dataclass
class ConditionSet:
    """A nonempty subset of Z/q^nZ with its defining descriptor."""

    modulus: PrimePowerModulus
    members: np.ndarray
    descriptor: str

    def __len__(self) -> int:
        return len(self.members)


def _check_cap(size: int, name: str) -> None:
    """OutOfRangeParameter if `name` = size exceeds PARAM_SPACE_CAP = 2^26."""
    if size > PARAM_SPACE_CAP:
        raise OutOfRangeParameter(f"{name} = {size} exceeds 2^26")


def _split_roots_each(g: IntPoly, qs, n: int = 1):
    """Yield (q, roots of g mod q^n) for each q of qs in turn, errors
    included: the roots mod q of all of qs come from one roots_mod_primes
    batch, raise NotSplit unless there are deg g of them, and are
    Newton-lifted to q^n in place."""
    for base in roots_mod_primes(g, qs):
        q, roots = base.modulus.q, list(base.roots)
        if len(roots) != g.degree:
            raise NotSplit(f"g has {len(roots)} roots mod {q}, expected {g.degree}")
        yield q, roots if n == 1 else list(_newton_lift(g, q, roots, n).roots)


def _root_values(g: IntPoly, q: int, n: int, *vs: LaurentPoly) -> list[list[int]]:
    """For each v of vs (X if there is none), v(r) mod q^n at each root r of
    g mod q^n in _split_roots_each order; the roots are found once."""
    roots = next(_split_roots_each(g, [q], n))[1]
    vs = vs or (LaurentPoly.x(),)
    if any(v.min_exp < 0 for v in vs) and any(r % q == 0 for r in roots):
        raise NonInvertibleRoot("a root is divisible by q but v has negative exponents")
    return [[v.eval_mod(r, q**n) for r in roots] for v in vs]


def _exp_of_residues(ks: np.ndarray, modulus: int) -> np.ndarray:
    return np.exp((2j * np.pi / modulus) * ks)


def _outer_fill(pairs, total: int) -> np.ndarray:
    """out[i*C + j] = sum over (u, v) in pairs of u[i]*v[j] for the first
    `total` entries, C = len(v), row by row in the order of `pairs`: no BLAS,
    so values are the same on every run, and no full-size temporary."""
    out = np.empty(total, dtype=np.complex128)
    (u0, v0), *rest = pairs
    for i, start in enumerate(range(0, total, len(v0))):
        row = out[start : start + len(v0)]
        np.multiply(u0[i], v0[: len(row)], out=row)
        for u, v in rest:
            row += u[i] * v[: len(row)]
    return out


def _split_pairs(ws, size: int) -> list:
    """(u, v) per w with e(a*w/size) = u[a1]*v[a0], a = a1*m + a0 and
    m = ceil(sqrt(size)); residues stay below size <= 2^26, so products fit
    in int64."""
    m = math.isqrt(size - 1) + 1
    a0, a1 = np.arange(m, dtype=np.int64), np.arange(-(-size // m), dtype=np.int64)
    return [
        (_exp_of_residues(a1 * (m * w % size) % size, size), _exp_of_residues(a0 * w % size, size))
        for w in ws
    ]


def additive_sum_grid(
    g: IntPoly,
    q: int,
    n: int = 1,
    v: LaurentPoly | None = None,
    threads: int = 1,
) -> SumGrid:
    """values[a] = sum over roots r mod q^n of e(a*v(r)/q^n), for all a.

    threads must be >= 1 and has no other effect.
    """
    if threads < 1:
        raise OutOfRangeParameter(f"threads must be >= 1, got {threads}")
    v = v or LaurentPoly.x()
    qn = PrimePowerModulus(q, n).modulus
    _check_cap(qn, "parameter space q^n")
    values = _outer_fill(_split_pairs(_root_values(g, q, n, v)[0], qn), qn)
    return SumGrid(
        ambient_size=qn,
        values=values,
        excluded=(),
        meta={"family": "additive", "g": str(g), "d": g.degree, "q": q, "n": n, "v": str(v)},
    )


def multi_param_sum_samples(
    g: IntPoly,
    q: int,
    exponents,
    count: int,
    seed: int,
    full_grid: bool = False,
) -> np.ndarray:
    """Sampled values of sum_r e((a_1 r^m_1 + ... + a_k r^m_k)/q).

    Tuples are drawn uniformly with the seeded counter-based PRNG; with
    full_grid=True the whole q^k space is enumerated instead (count ignored)
    provided it fits under the 2^26 cap, in lexicographic order of
    (a_1, ..., a_k): the outer product of e(a_1 r^m_1/q) with e(t/q), t the
    exact residue of a_2 r^m_2 + ... + a_k r^m_k over the other coordinates.
    """
    exponents = [int(m) for m in exponents]
    if len(set(exponents)) != len(exponents) or not exponents:
        raise OutOfRangeParameter("exponents must be a nonempty distinct list")
    k = len(exponents)
    # powers[i][j] = r_i^m_j mod q
    powers = list(zip(*_root_values(g, q, 1, *map(LaurentPoly.monomial, exponents))))
    if full_grid:
        total = q**k
        _check_cap(total, "full grid q^k")
        if k == 1:
            return _outer_fill(_split_pairs([pw[0] for pw in powers], q), q)
        a = np.arange(q, dtype=np.int64)
        pairs = []
        for pw in powers:
            tail = np.zeros(1, dtype=np.int64)
            for p in pw[1:]:
                tail = ((tail[:, None] + a * p) % q).ravel()
            pairs.append((_exp_of_residues(a * pw[0] % q, q), _exp_of_residues(tail, q)))
        return _outer_fill(pairs, total)
    if count < 1:
        raise OutOfRangeParameter("count must be >= 1")
    rng = philox_generator(seed, "multi-param")
    tuples = rng.integers(0, q, size=(count, k), dtype=np.int64)
    return sum(_exp_of_residues((tuples * pw % q).sum(axis=1) % q, q) for pw in powers)


def mult_char_sum_grid(g: IntPoly, q: int, v: LaurentPoly | None = None) -> SumGrid:
    """values[t] = sum_r chi_t(v(r)) over the q-1 characters chi_t of F_q^*.

    chi_t(gen^s) = e(s*t/(q-1)) for the smallest primitive root gen, so
    values[t] = sum_r e(t*dlog(v(r))/(q-1)); dlog(w) is the index of w in
    the table of powers gen^i.  q is capped at 2^26.
    """
    _check_cap(q, "q")
    v = v or LaurentPoly.x()
    vals = _root_values(g, q, 1, v)[0]
    if any(w % q == 0 for w in vals):
        raise VanishingValue("v(r) = 0 mod q at a root")
    size = q - 1
    powers = _generator_powers(multiplicative_generator(q), q)
    logs = [int(np.flatnonzero(powers == w)[0]) for w in vals]
    values = _outer_fill(_split_pairs(logs, size), size)
    return SumGrid(
        ambient_size=size,
        values=values,
        excluded=(),
        meta={"family": "multiplicative", "g": str(g), "d": g.degree, "q": q, "n": 1, "v": str(v)},
    )


# ---------------------------------------------------------------------------
# Kloosterman sums


_KL_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _generator_powers(gen: int, q: int, count: int | None = None) -> np.ndarray:
    """gen^i mod q for i in [0, count), count q-1 by default, filled in
    doubling blocks.

    Block [n, 2n) is block [0, n) times gen^n; for q <= 2^26 every product
    is below 2^52 and fits in int64.
    """
    count = q - 1 if count is None else count
    powers = np.empty(count, dtype=np.int64)
    powers[0] = 1
    n = 1
    while n < count:
        m = min(n, count - n)
        powers[n : n + m] = powers[:m] * pow(gen, n, q) % q
        n += m
    return powers


def _check_kl_args(r: int, q: int) -> None:
    """Rank r >= 2 and q a prime <= 2^26, shared by every Kloosterman entry point."""
    if r < 2:
        raise OutOfRangeParameter("rank r must be >= 2")
    _check_cap(q, "q")
    if not is_prime(q):
        raise OutOfRangeParameter(f"{q} is not prime")


def kloosterman_table(r: int, q: int) -> np.ndarray:
    """Kl_r(b; q) for every b in [0, q), by FFT over discrete logarithms.

    On F_q^* the unnormalised sum S_r(b) = sum over x_1*...*x_r = b of
    e((x_1 + ... + x_r)/q) is an r-fold multiplicative convolution.  Indexing
    F_q^* by discrete log to the smallest primitive root gen (Rader's
    re-indexing) makes it cyclic: with w[i] = e(gen^i/q),
    S_r(gen^k) = ifft(fft(w)^r)[k], and Kl_r = q^(-(r-1)/2) S_r =
    sqrt(q) * ifft((fft(w)/sqrt(q))^r).  Cost O(q log q) per (r, q).

    The normalised spectrum stays in the unit disc, so no rank overflows:
    fft(w)[j] = sum over x in F_q^* of e(x/q) * chi_j(x)^-1 with chi_j the
    character gen^i -> e(i*j/(q-1)).  For j = 0 this is -1; for j != 0 it is
    a Gauss sum of modulus sqrt(q).  Every entry of fft(w)/sqrt(q) thus has
    modulus 1 or 1/sqrt(q), its r-th power has modulus at most 1 (up to
    rounding), and each entry of the ifft is at most 1 before the factor
    sqrt(q).

    For even r the table is exactly real (the real part, imaginary part
    +0.0): substituting x_i -> -x_i gives conj Kl_r(a) = Kl_r((-1)^r a).
    The entry at b = 0 is the value (-1)^(r-1) q^(-(r-1)/2) of the
    free-variable form (non-lisse point; grids exclude it).  Tables are
    memoised per (r, q) and read-only.
    """
    key = (r, q)
    if key in _KL_TABLES:  # only checked (r, q) are ever stored
        return _KL_TABLES[key]
    _check_kl_args(r, q)
    powers = _generator_powers(multiplicative_generator(q), q)
    root_q = math.sqrt(q)
    spectrum = np.fft.fft(_exp_of_residues(powers, q)) / root_q
    table = np.empty(q, dtype=np.complex128)
    table[powers] = np.fft.ifft(spectrum**r) * root_q
    table[0] = (-1) ** (r - 1) * q ** (-(r - 1) / 2)
    if r % 2 == 0:
        table = table.real.astype(np.complex128)
    table.flags.writeable = False
    _KL_TABLES[key] = table
    return table


def hyper_kloosterman(r: int, a: int, q: int) -> complex:
    """Normalized hyper-Kloosterman sum Kl_r(a; q), for 1 <= a <= q-1.

    Kl_r(a;q) = q^(-(r-1)/2) * sum over x_1..x_(r-1) in F_q^* of
    e((x_1 + ... + x_(r-1) + a/(x_1...x_(r-1)))/q).  For r = 2 this is one
    O(q) pass in Rader's index, with no FFT and no table:
    q^(-1/2) * sum over k of cos(2*pi*((gen^k + a*gen^(-k)) mod q)/q), gen
    the primitive root of kloosterman_table, and the value is real.  For
    r >= 3 any one entry needs the whole (r-1)-fold convolution, so the
    value is entry a of the memoised kloosterman_table(r, q).  Either way it
    depends only on (r, a, q).

    >>> import math
    >>> want = (2 + 2 * math.cos(4 * math.pi / 5)) / math.sqrt(5)
    >>> abs(hyper_kloosterman(2, 1, 5) - want) < 1e-15
    True
    """
    if not 1 <= a <= q - 1:
        raise OutOfRangeParameter("need 1 <= a <= q-1")
    if r != 2:
        return complex(kloosterman_table(r, q)[a])
    _check_kl_args(r, q)
    powers = _generator_powers(multiplicative_generator(q), q)
    # gen^(-k) = powers[-k mod (q-1)]; a, powers < q <= 2^26, so int64 holds a*powers
    ks = (powers + a * np.roll(powers[::-1], 1)) % q
    return complex(np.cos((2 * np.pi / q) * ks).sum() / math.sqrt(q), 0.0)


def trace_sum_grid(g: IntPoly, q: int, r: int = 2, mode: str = "dilate") -> SumGrid:
    """values[a] = sum_i Kl_r(a*r_i; q) (dilate) or Kl_r(a + r_i; q) (translate).

    Dilate needs 0 not in Z_g and drops a = 0; translate drops a = -r_i; in
    both cases the dropped points are exactly where an argument hits the
    non-lisse point 0.
    """
    if mode not in ("dilate", "translate"):
        raise InvalidDescriptor(f"unknown mode {mode!r}")
    roots = _root_values(g, q, 1)[0]
    if mode == "dilate":
        if g.coeffs[0] == 0:
            raise ZeroRoot("dilate mode needs 0 not in Z_g")
        if any(rt % q == 0 for rt in roots):
            raise ZeroRoot("a root vanishes mod q; every dilate argument hits 0")
        excluded = (0,)
    else:
        excluded = tuple(sorted((-rt) % q for rt in roots))
    table = kloosterman_table(r, q)
    params = np.delete(np.arange(q, dtype=np.int64), list(excluded))
    shift = np.multiply if mode == "dilate" else np.add
    values = np.zeros(len(params), dtype=np.complex128)
    for rt in roots:
        values += table[shift(params, rt) % q]
    return SumGrid(
        ambient_size=q,
        values=values,
        excluded=excluded,
        meta={
            "family": "kloosterman-trace",
            "g": str(g),
            "d": g.degree,
            "q": q,
            "n": 1,
            "r": r,
            "mode": mode,
        },
    )


# ---------------------------------------------------------------------------
# condition sets and Weyl sums


def make_condition_set(q: int, n: int, descriptor) -> ConditionSet:
    """Build the subset of Z/q^nZ described by `descriptor`.

    Descriptors: "full"; "interval:ALPHA" with 0 < ALPHA <= 1 (first
    ceil(ALPHA*q^n) residues); "image:F" for monic integer F (the image
    {F(b) mod q}); "subgroup:M" with M | q-1 and n = 1 (the unique order-M
    subgroup of (Z/qZ)^*).
    """
    mod = PrimePowerModulus(q, n)
    qn = mod.modulus
    _check_cap(qn, "parameter space q^n")
    kind, arg = _parse_descriptor(descriptor)
    if kind == "full":
        members = np.arange(qn, dtype=np.int64)
        canon = "full"
    elif kind == "interval":
        alpha = _descriptor_arg(descriptor, float, arg)
        if not 0 < alpha <= 1:
            raise InvalidDescriptor("interval ratio must be in (0, 1]")
        members = np.arange(math.ceil(alpha * qn), dtype=np.int64)
        canon = f"interval:{alpha}"
    elif kind == "image":
        coeffs = _descriptor_arg(descriptor, _dense_coeffs, arg)
        if coeffs[-1] != 1:
            raise InvalidDescriptor("image polynomial must be monic")
        xs = np.arange(q, dtype=np.int64)
        acc = np.zeros(q, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc * xs + c) % q
        members = np.unique(acc)
        canon = f"image:{arg}"
    elif kind == "subgroup":
        m = _descriptor_arg(descriptor, int, arg)
        if n != 1:
            raise InvalidDescriptor("subgroup descriptor requires n = 1")
        if m < 1 or (q - 1) % m != 0:
            raise InvalidDescriptor(f"order {m} does not divide q-1 = {q-1}")
        h = pow(multiplicative_generator(q), (q - 1) // m, q)
        members = np.sort(_generator_powers(h, q, m))
        canon = f"subgroup:{m}"
    else:
        raise InvalidDescriptor(f"unknown descriptor {descriptor!r}")
    return ConditionSet(mod, members, canon)


def _parse_descriptor(descriptor) -> tuple[str, str]:
    if isinstance(descriptor, (tuple, list)):
        kind = str(descriptor[0])
        arg = str(descriptor[1]) if len(descriptor) > 1 else ""
        return kind, arg
    text = str(descriptor)
    if ":" in text:
        kind, arg = text.split(":", 1)
        return kind.strip(), arg.strip()
    return text.strip(), ""


def _descriptor_arg(descriptor, parse, arg: str):
    """parse(arg), with malformed text reported as InvalidDescriptor."""
    try:
        return parse(arg)
    except ValueError as exc:
        raise InvalidDescriptor(f"descriptor {descriptor!r}: {exc}") from None


def _set_roots(g: IntPoly, q: int, n: int, A: ConditionSet, *vs: LaurentPoly) -> list[int]:
    """_root_values(g, q, n, *vs)[0], once A is checked to be a subset of Z/q^nZ."""
    if A.modulus != PrimePowerModulus(q, n):
        raise OutOfRangeParameter(f"condition set is mod {A.modulus.modulus}, not {q**n}")
    return _root_values(g, q, n, *vs)[0]


def _set_sums(A: ConditionSet, ws) -> np.ndarray:
    """The sum over w of ws of e(a*w/q^n) at each a of A, added in the
    order of ws; a and w are below q^n <= 2^26, so a*w fits in int64."""
    qn = A.modulus.modulus
    return sum(_exp_of_residues(A.members * w % qn, qn) for w in ws)


def _weyl_phase(roots, alpha, qn: int) -> int:
    """c = sum alpha_i r_i mod q^n, exactly; the full-set Weyl sum is [c == 0]."""
    if len(alpha) != len(roots):
        raise OutOfRangeParameter("alpha must have one entry per root")
    return sum(int(a) * r for a, r in zip(alpha, roots)) % qn


def _set_weyl(roots, alpha, A: ConditionSet) -> complex:
    """weyl_sum(g, q, n, alpha, A) from the roots of g mod q^n."""
    c = _weyl_phase(roots, alpha, A.modulus.modulus)
    if A.descriptor == "full":
        return complex(1.0 if c == 0 else 0.0)
    return complex(_set_sums(A, [c]).mean())


def weyl_sum(g: IntPoly, q: int, n: int, alpha, A: ConditionSet) -> complex:
    """(1/|A|) sum_{a in A} e(a*c/q^n) with c = sum alpha_i r_i mod q^n.

    Over the full set this is decided exactly in integer arithmetic
    (character orthogonality): 1 if c = 0 mod q^n, else 0.  A must be a
    subset of Z/q^nZ for this q and n.
    """
    return _set_weyl(_set_roots(g, q, n, A), alpha, A)


def restricted_sum_values(
    g: IntPoly, q: int, n: int, A: ConditionSet, v: LaurentPoly | None = None
) -> np.ndarray:
    """S(a) = sum_r e(a*v(r)/q^n) for a running over the condition set,
    which must be a subset of Z/q^nZ for this q and n."""
    return _set_sums(A, _set_roots(g, q, n, A, v or LaurentPoly.x()))


def prime_sweep_values(g: IntPoly, qs, a: int) -> np.ndarray:
    """sum over the roots r of g mod q of e(a*r/q), for each split prime q
    of qs, the roots of all of qs found in one batch."""
    return np.array([sum(np.exp(2j * np.pi * ((a * r) % q) / q) for r in roots)
                     for q, roots in _split_roots_each(g, qs)], dtype=np.complex128)


def uniformity_metric(A: ConditionSet) -> float:
    """max over h != 0 of |sum_{a in A} e(a*h/q^n)| / |A|.

    DFT of the indicator by numpy's pocketfft for every N (its Bluestein
    chirp transform handles prime N in O(N log N)).
    """
    if len(A.members) < 1:
        raise OutOfRangeParameter("condition set must be nonempty")
    n = A.modulus.modulus
    _check_cap(n, "parameter space q^n")
    x = np.zeros(n, dtype=np.float64)
    x[A.members] = 1.0
    mags = np.abs(np.fft.fft(x))
    mags[0] = 0.0
    return float(mags.max() / len(A.members))
