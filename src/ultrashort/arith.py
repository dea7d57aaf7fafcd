"""Exact integer, modular and polynomial arithmetic.

Everything here is deterministic and allocation-free of global state: split
prime search, root finding modulo primes (Cantor-Zassenhaus with a seeded
PRNG derived from the inputs), Hensel lifting to prime powers, and the small
helpers the sum kernels need (primitive roots, modular inverses, Philox streams).

No number field is ever represented; per the identification
Z/q^nZ = O_g/p^n at totally split primes, all root data lives in plain
integer residues.

One numpy kernel raises every power mod (g, q) (Cohen, GTM 138, §3.4 and
§8.1): (X + c)^e for a batch of columns, each with its own prime q, shift c
and exponent e, as (d, P) arrays in int64 while q <= isqrt(2^63 - 1) =
3037000499 (so every product a*b < q^2 fits), in Python integers above.
The split test takes c = 0, e = q: q splits g into d distinct linear factors
iff X^q = X mod (g, q), and the band search feeds it the primes of one
segment of a segmented sieve at a time.  Root finding takes a list of primes
at once: X^q gives the linear part gcd(X^q - X, g), and Cantor-Zassenhaus
splits it with columns (X + c)^((q - 1)/2) for random shifts c, leaving only
gcd, remainder and quotient to coefficient lists over F_q.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPrimeModulus, OutOfRangeParameter, RamifiedPrime, UltrashortError

MODULUS_LIMIT = 1 << 63  # deterministic Miller-Rabin witness set is valid below this

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^63.

    >>> [p for p in range(2, 30) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n >= MODULUS_LIMIT:
        raise OutOfRangeParameter(f"primality testing limited to n < 2^63, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int):
    """Primes in [lo, hi] in ascending order, sieved one segment at a time.

    >>> list(primes_in_range(20, 40))
    [23, 29, 31, 37]
    """
    _check_band_end(hi)
    return (p for segment in _prime_segments(lo, hi) for p in segment.tolist())


def _check_band_end(hi: int) -> None:
    if hi >= MODULUS_LIMIT:
        raise OutOfRangeParameter(f"prime bands must end below 2^63, got hi = {hi}")


_SEGMENT = 1 << 16  # numbers per sieve segment, and so per batch of primes
_SIEVING_LIMIT = 1 << 16  # sieving primes stop here: survivors < 2^32 are prime
_PROVEN_BELOW = _SIEVING_LIMIT**2


def _prime_segments(lo: int, hi: int):
    """The primes in [lo, hi] (hi < 2^63) as ascending int64 arrays, one per
    sieve segment that holds any.  The sieving primes come from the same
    sieve, on [2, min(isqrt(hi), 2^16)]."""
    start = max(lo, 2)
    if start > hi:
        return
    base = list(primes_in_range(2, min(math.isqrt(hi), _SIEVING_LIMIT)))
    while start <= hi:
        stop = min(hi + 1, start + _SEGMENT)
        keep = np.ones(stop - start, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            first = max(p * p, -(-start // p) * p)
            keep[first - start :: p] = False
        found = np.flatnonzero(keep) + start
        if stop > _PROVEN_BELOW:
            found = found[[n < _PROVEN_BELOW or is_prime(n) for n in found.tolist()]]
        if found.size:
            yield found
        start = stop


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) via the Sylvester matrix, coefficients lowest degree first."""
    df = len(f) - 1
    dg = len(g) - 1
    if df < 0 or dg < 0:
        return 0
    n = df + dg
    if n == 0:
        return 1
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (n - dg - 1 - i))
    return _bareiss_det(rows)


@dataclass(frozen=True)
class IntPoly:
    """Monic separable polynomial over Z, coefficients lowest degree first.

    >>> IntPoly.parse("X^3+X+3").coeffs
    (3, 1, 0, 1)
    >>> IntPoly((3, 1, 0, 1)).discriminant
    -247
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(not isinstance(c, int) for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.discriminant == 0:
            raise ValueError("polynomial must be separable (nonzero discriminant)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def discriminant(self) -> int:
        """Computed once per polynomial; it is not a field, so eq and hash
        still compare only the coefficients."""
        d = self.degree
        if d == 1:
            return 1
        res = resultant(list(self.coeffs), self.derivative_coeffs())
        return (-1) ** (d * (d - 1) // 2) * res

    def derivative_coeffs(self) -> list[int]:
        return [i * c for i, c in enumerate(self.coeffs)][1:]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, mod: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % mod
        return acc

    def derivative_mod(self, x: int, mod: int) -> int:
        acc = 0
        for c in reversed(self.derivative_coeffs()):
            acc = (acc * x + c) % mod
        return acc

    def key(self) -> str:
        """Stable text key for hashing/caching."""
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Accept either "c0,c1,...,cd" or the human form "X^3+X+3"."""
        text = text.strip()
        if "," in text or ("X" not in text.upper() and "x" not in text):
            try:
                coeffs = tuple(int(t) for t in text.split(","))
            except ValueError as exc:
                raise ValueError(f"cannot parse polynomial {text!r}") from exc
            return cls(coeffs)
        return cls(tuple(_dense_coeffs(text)))

    def __str__(self) -> str:
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            parts.append(_format_term(c, e, first=not parts))
        return "".join(parts) if parts else "0"


def _format_term(c: int, e: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if e == 0:
        return f"{sign}{mag}"
    coeff = "" if mag == 1 else str(mag)
    power = "X" if e == 1 else f"X^{e}"
    return f"{sign}{coeff}{power}"


def _dense_coeffs(text: str) -> list[int]:
    """Coefficients, lowest degree first, of a polynomial written like
    "X^3+X+3"; a negative exponent is a ValueError."""
    terms = _parse_terms(text)
    if any(e < 0 for e, _ in terms):
        raise ValueError("negative exponents are not allowed in a polynomial")
    coeffs = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        coeffs[e] += c
    return coeffs


def _parse_terms(text: str) -> list[tuple[int, int]]:
    """Parse "2X^3-X^-2+5" into [(3, 2), (-2, -1), (0, 5)]; later terms need a sign."""
    s = text.replace(" ", "").replace("x", "X").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    terms = []
    i = 0
    n = len(s)
    while i < n:
        if terms and s[i] not in "+-":
            raise ValueError(f"cannot parse polynomial {text!r}: no sign before {s[i:]!r}")
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and s[j].isdigit():
            j += 1
        had_digits = j > i
        coeff = int(s[i:j]) if had_digits else 1
        i = j
        if i < n and s[i] == "X":
            i += 1
            if i < n and s[i] == "*":  # tolerate "2*X"
                raise ValueError(f"cannot parse polynomial {text!r}")
            exp = 1
            if i < n and s[i] == "^":
                i += 1
                k = i
                if k < n and s[k] == "-":
                    k += 1
                while k < n and s[k].isdigit():
                    k += 1
                if k == i:
                    raise ValueError(f"cannot parse polynomial {text!r}")
                exp = int(s[i:k])
                i = k
        else:
            if not had_digits:  # neither digits nor X
                raise ValueError(f"cannot parse polynomial {text!r}")
            exp = 0
        terms.append((exp, sign * coeff))
    return terms


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial over Z: tuple of (exponent, coefficient) pairs.

    >>> LaurentPoly.parse("X+X^-1").terms
    ((-1, 1), (1, 1))
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: dict[int, int] = {}
        for e, c in self.terms:
            merged[e] = merged.get(e, 0) + c
        cleaned = tuple(sorted((e, c) for e, c in merged.items() if c != 0))
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        return cls(tuple((e, c) for e, c in _parse_terms(text)))

    @classmethod
    def x(cls) -> "LaurentPoly":
        return cls(((1, 1),))

    @classmethod
    def monomial(cls, e: int) -> "LaurentPoly":
        return cls(((e, 1),))

    @property
    def min_exp(self) -> int:
        return self.terms[0][0] if self.terms else 0

    @property
    def max_exp(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    @property
    def is_constant(self) -> bool:
        return all(e == 0 for e, _ in self.terms)

    def integralized(self) -> tuple[int, list[int]]:
        """Return (e, coeffs of X^e * v lowest first) with e = max(0, -min_exp)."""
        e = max(0, -self.min_exp)
        coeffs = [0] * (self.max_exp + e + 1)
        for k, c in self.terms:
            coeffs[k + e] = c
        return e, coeffs

    def __call__(self, x):
        return sum(c * x**e for e, c in self.terms)

    def eval_mod(self, x: int, mod: int) -> int:
        acc = 0
        for e, c in self.terms:
            acc = (acc + c * pow(x, e, mod)) % mod
        return acc

    def key(self) -> str:
        return ";".join(f"{e}:{c}" for e, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, reverse=True):
            parts.append(_format_term(c, e, first=not parts))
        return "".join(parts)


@dataclass(frozen=True)
class PrimePowerModulus:
    """q^n for a prime q; the finite level at which sums are computed."""

    q: int
    n: int = 1
    modulus: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.q):
            raise NonPrimeModulus(f"{self.q} is not prime")
        if self.n < 1:
            raise OutOfRangeParameter("exponent must be >= 1")
        m = self.q**self.n
        if m >= MODULUS_LIMIT:
            raise OutOfRangeParameter(f"q^n = {m} exceeds the 2^63 modulus limit")
        object.__setattr__(self, "modulus", m)


@dataclass(frozen=True)
class RootList:
    """Sorted roots of g modulo q^n."""

    modulus: PrimePowerModulus
    roots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(sorted(int(r) for r in self.roots)))


def discriminant(g: IntPoly) -> int:
    """disc(g) = (-1)^(d(d-1)/2) Res(g, g'), exact.

    >>> discriminant(IntPoly.parse("X^2-2"))
    8
    """
    return g.discriminant


# ---------------------------------------------------------------------------
# the one power kernel, batched over columns: residues are (d, P) arrays, row
# i the coefficient of X^i, column j reduced mod qs[j]

_INT64_PRODUCT_LIMIT = math.isqrt(MODULUS_LIMIT - 1)  # 3037000499


def _square_mod(r: np.ndarray, low: np.ndarray, q: np.ndarray) -> np.ndarray:
    """r^2 mod (g, q), where g = X^d + sum(low[i] X^i)."""
    d = len(r)
    prod = r[:, None] * r[None, :] % q  # each entry < q^2 before the reduction
    s = np.zeros((2 * d - 1,) + r.shape[1:], dtype=r.dtype)
    for i in range(d):
        s[i : i + d] += prod[i]  # at most d terms below q
    s %= q
    for k in range(2 * d - 2, d - 1, -1):  # X^k = -X^(k-d) * (low part of g)
        s[k - d : k] = (s[k - d : k] - s[k] * low % q) % q
    return s[:d]


def _times_x_plus(r: np.ndarray, low: np.ndarray, q: np.ndarray, c) -> np.ndarray:
    """(X + c) * r mod (g, q), where g = X^d + sum(low[i] X^i)."""
    out = -r[-1] * low % q
    out[1:] += r[:-1]
    out += c * r % q  # three terms below q
    return out % q


def _power_columns(g: IntPoly, qs, cs, es) -> tuple[np.ndarray, np.ndarray]:
    """((X + c)^e mod (g, q), X mod (g, q)) for each column (q, c, e) of the
    int64 arrays qs (primes), cs (shifts in [0, q)) and es (exponents >= 1),
    by square-and-multiply over the bits of the largest e: a smaller e keeps
    the constant 1 until its top bit, and X + c multiplies where e has a bit.
    """
    big = qs.astype(object)
    dtype = np.int64 if int(qs.max()) <= _INT64_PRODUCT_LIMIT else object
    q = qs.astype(dtype)
    c = cs.astype(dtype)
    low = np.array([a % big for a in g.coeffs[:-1]], dtype=dtype)
    one = np.zeros_like(low)
    one[0] = 1
    r = one
    for bit in reversed(range(int(es.max()).bit_length())):
        r = _square_mod(r, low, q)
        r = np.where((es >> bit) & 1 == 1, _times_x_plus(r, low, q, c), r)
    return r, _times_x_plus(one, low, q, 0)  # X mod g, a constant when d = 1


def _split_mask(g: IntPoly, qs: np.ndarray) -> np.ndarray:
    """For an int64 array of primes, True where g has d distinct roots mod q:
    X^q = X mod (g, q) and q does not divide disc(g)."""
    xq, x = _power_columns(g, qs, np.zeros_like(qs), qs)
    return (xq == x).all(axis=0) & (g.discriminant % qs.astype(object) != 0)


def is_split(g: IntPoly, q: int) -> bool:
    """True when g has d distinct roots mod the prime q (and q does not ramify)."""
    _check_band_end(q)
    return bool(_split_mask(g, np.array([q], dtype=np.int64))[0])


def find_split_primes(g: IntPoly, lo: int, hi: int) -> list[int]:
    """All primes q in [lo, hi] with q unramified and totally split for g.

    >>> find_split_primes(IntPoly.parse("X^5-1"), 2, 40)
    [11, 31]
    """
    if not (2 <= lo <= hi):
        raise OutOfRangeParameter("need 2 <= lo <= hi")
    _check_band_end(hi)
    return [
        q
        for segment in _prime_segments(lo, hi)
        for q in segment[_split_mask(g, segment)].tolist()
    ]


# ---------------------------------------------------------------------------
# root finding: dense polynomials over F_q as coefficient lists, lowest
# degree first, beside the kernel's columns


def _poly_rem(a: list[int], m: list[int], q: int) -> list[int]:
    a = a[:]
    inv_lead = pow(m[-1], -1, q)
    while len(a) >= len(m):
        factor = a[-1] * inv_lead % q
        shift = len(a) - len(m)
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % q
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd of a and b over F_q (b nonzero)."""
    a, b = a[:], b[:]
    while b:
        a = _poly_rem(a, b, q)
        a, b = b, a
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _poly_quotient(a: list[int], b: list[int], q: int) -> list[int]:
    """a / b over F_q, for a monic b that divides a."""
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coef = out[shift] = a[shift + len(b) - 1]
        if coef:
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * bi) % q
    return out


# Cantor-Zassenhaus shifts per unfinished prime and round.  For odd q, a shift
# c splits roots r != s apart iff just one of r + c, s + c is a nonzero square
# mod q, which holds for at least (q - 1)/2 of the q shifts; so a pair of roots
# stays together through a round with chance at most ((q + 1)/(2q))^6, about
# 1/64.  At q = 2 every shift splits the pair {0, 1}.
_SHIFTS_PER_ROUND = 6


def _derived_seed(g: IntPoly, q: int) -> int:
    digest = hashlib.sha256(f"{g.key()}|{q}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def philox_generator(seed: int, op: str, index: int = 0) -> np.random.Generator:
    """Deterministic, splittable stream keyed by (seed, op, index)."""
    digest = hashlib.sha256(f"{seed}|{op}|{index}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def roots_mod_primes(g: IntPoly, qs):
    """Yield roots_mod_prime(g, q) for each q of qs in turn, errors included:
    the primes before the first q that is not prime or divides disc(g) are
    found together, and that q then raises.  The first kernel call gives each
    prime X^q, and gcd(X^q - X, g) is the product of the linear factors of g
    mod q.  Each call gives each prime with a factor f of degree >= 2 left
    _SHIFTS_PER_ROUND columns h = (X + c)^((q - 1)/2) mod g (X + c at q = 2),
    c from a PRNG seeded by (g, q), and f splits by gcd(h - 1, f): f divides
    g, so (h mod g) mod f = h mod f."""
    checked, error = [], None
    try:
        for q in qs:
            if not is_prime(q):  # which raises OutOfRangeParameter at q >= 2^63
                raise NonPrimeModulus(f"{q} is not prime")
            if g.discriminant % q == 0:
                raise RamifiedPrime(f"{q} divides disc(g) = {g.discriminant}")
            checked.append(q)
    except UltrashortError as exc:
        error = exc
    roots = {int(q): [] for q in checked}
    factors = dict.fromkeys(roots)  # None until the round that finds X^q
    rng = {q: random.Random(_derived_seed(g, q)) for q in roots}
    while factors:
        cols = []
        for q, fs in factors.items():
            cols += [(q, 0, q)] if fs is None else []
            cols += [(q, rng[q].randrange(q), (q - 1) // 2 or 1) for _ in range(_SHIFTS_PER_ROUND)]
        powers, xs = _power_columns(g, *(np.array(col, dtype=np.int64) for col in zip(*cols)))
        columns = zip(powers.T.tolist(), xs.T.tolist())
        for q, fs in list(factors.items()):
            if fs is None:
                xq, x = next(columns)
                gq = [c % q for c in g.coeffs]
                fs = [_poly_gcd([(a - b) % q for a, b in zip(xq, x)], gq, q)]
            for _ in range(_SHIFTS_PER_ROUND):
                h = next(columns)[0]
                h[0] = (h[0] - 1) % q
                split = []
                for f in fs:
                    f1 = _poly_gcd(h, f, q) if len(f) > 2 else f
                    split += [f1, _poly_quotient(f, f1, q)] if 1 < len(f1) < len(f) else [f]
                fs = split
            roots[q] += [-f[0] % q for f in fs if len(f) == 2]
            factors[q] = [f for f in fs if len(f) > 2]
            if not factors[q]:
                del factors[q]
    for q in checked:
        yield RootList(PrimePowerModulus(q, 1), tuple(roots[int(q)]))
    if error is not None:
        raise error


def roots_mod_prime(g: IntPoly, q: int) -> RootList:
    """All roots of g modulo a prime q not dividing disc(g), sorted.

    A batch of one for roots_mod_primes.  The internal PRNG is reseeded from
    (g, q), so the output is reproducible.
    """
    return next(roots_mod_primes(g, [q]))


def _newton_lift(g: IntPoly, q: int, roots, n: int) -> RootList:
    """The roots of g mod q (q unramified, so each is simple) lifted to its
    roots modulo q^n by Newton steps that square the modulus."""
    mod = PrimePowerModulus(q, n)
    target = mod.modulus
    lifted = []
    for r in roots:
        m = q
        x = r
        while m < target:
            m = min(m * m, target)
            # simple root: g'(x) is a unit mod q, hence mod m
            deriv = g.derivative_mod(x, m)
            x = (x - g.eval_mod(x, m) * pow(deriv, -1, m)) % m
        lifted.append(x)
    return RootList(mod, tuple(lifted))


def hensel_roots(g: IntPoly, q: int, n: int) -> RootList:
    """Roots of g modulo q^n by Newton lifting of the simple mod-q roots."""
    if n < 1:
        raise OutOfRangeParameter("n must be >= 1")
    base = roots_mod_prime(g, q)
    return base if n == 1 else _newton_lift(g, q, base.roots, n)


_TRIAL_DIVISION_CAP = 1000


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of Pollard
    rho (Cohen, GTM 138, Alg. 8.5.2): x -> x^2 + c from x = 2, gcds taken in
    batches of products, c = 1, 2, ... until one gives a proper factor."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """Prime factors of 1 <= n < 2^63 with multiplicity, ascending.

    Trial division below a small cap, then Pollard-Brent rho on what is
    left, with is_prime deciding when a part is finished.

    >>> _prime_factors(2**61 - 2)
    [2, 3, 3, 5, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]
    """
    out = []
    for p in range(2, _TRIAL_DIVISION_CAP):
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.append(m)
        else:
            f = _pollard_brent(m)
            parts += [f, m // f]
    return sorted(out)


def multiplicative_generator(q: int) -> int:
    """Smallest positive primitive root mod q.

    >>> multiplicative_generator(7)
    3
    """
    if not is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")
    if q == 2:
        return 1
    prime_factors = set(_prime_factors(q - 1))
    for candidate in range(2, q):
        if all(pow(candidate, (q - 1) // p, q) != 1 for p in prime_factors):
            return candidate
    raise AssertionError("unreachable: (Z/qZ)* is cyclic")
