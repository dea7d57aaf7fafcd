"""Exact arithmetic: discriminants, split primes, root finding, lifting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrashort.arith as arith
from ultrashort.arith import (
    IntPoly,
    LaurentPoly,
    PrimePowerModulus,
    discriminant,
    find_split_primes,
    hensel_roots,
    is_prime,
    multiplicative_generator,
    roots_mod_prime,
    roots_mod_primes,
)
from ultrashort.errors import NonPrimeModulus, OutOfRangeParameter, RamifiedPrime


@pytest.mark.parametrize(
    "text,expected",
    [
        ("X^2-2", 8),  # b^2 - 4c with b=0, c=-2
        ("X-5", 1),  # degree-1 discriminant
        ("X^3+X+3", -247),  # -4p^3 - 27q^2 with p=1, q=3
        ("X^3-9X-1", 2889),  # -4p^3 - 27q^2 with p=-9, q=-1
    ],
)
def test_discriminant_examples(text, expected):
    assert discriminant(IntPoly.parse(text)) == expected


def test_parse_both_forms():
    assert IntPoly.parse("X^3+X+3") == IntPoly.parse("3,1,0,1")
    assert IntPoly.parse("X^3+2X^2+3").coeffs == (3, 0, 2, 1)
    assert IntPoly.parse("X^3-9X-1").coeffs == (-1, -9, 0, 1)
    assert str(IntPoly.parse("-1,-9,0,1")) == "X^3-9X-1"


def test_intpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        IntPoly((1,))  # degree 0
    with pytest.raises(ValueError):
        IntPoly((1, 2))  # not monic
    with pytest.raises(ValueError):
        IntPoly.parse("X^2-2X+1")  # (X-1)^2 is not separable
    with pytest.raises(ValueError):
        IntPoly.parse("X^-1+1")


def test_find_split_primes_examples():
    assert 30223 in find_split_primes(IntPoly.parse("X^3+X+3"), 30200, 30250)
    assert 30113 in find_split_primes(IntPoly.parse("X^3+2X^2+3"), 30100, 30120)
    assert find_split_primes(IntPoly.parse("X^5-1"), 2, 40) == [11, 31]
    # primes split in the 5th cyclotomic field are exactly those = 1 mod 5
    for q in find_split_primes(IntPoly.parse("X^5-1"), 2, 500):
        assert q % 5 == 1


def test_split_primes_give_simple_full_root_sets():
    g = IntPoly.parse("X^3+X+3")
    for q in find_split_primes(g, 2, 300):
        roots = roots_mod_prime(g, q).roots
        assert len(roots) == g.degree
        assert len(set(roots)) == g.degree
        assert all(g.derivative_mod(r, q) % q != 0 for r in roots)


@pytest.mark.parametrize(
    "text,q,expected",
    [
        ("X^3-1", 7, (1, 2, 4)),
        ("X^5-1", 11, (1, 3, 4, 5, 9)),
        ("X^2-2", 7, (3, 4)),
    ],
)
def test_roots_mod_prime_examples(text, q, expected):
    assert roots_mod_prime(IntPoly.parse(text), q).roots == expected


def test_roots_mod_prime_errors():
    with pytest.raises(NonPrimeModulus):
        roots_mod_prime(IntPoly.parse("X^2-2"), 8)
    with pytest.raises(RamifiedPrime):
        roots_mod_prime(IntPoly.parse("X^2-2"), 2)  # disc = 8


def _brute_roots(g, q):
    return tuple(x for x in range(q) if g.eval_mod(x, q) == 0)


def test_random_cubics_match_brute_force():
    import random

    rng = random.Random(12345)
    checked = 0
    while checked < 100:
        coeffs = (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20), 1)
        try:
            g = IntPoly(coeffs)
        except ValueError:
            continue
        q = rng.choice([3, 5, 7, 11, 53, 101, 151, 199])
        if g.discriminant % q == 0:
            continue
        assert roots_mod_prime(g, q).roots == _brute_roots(g, q)
        checked += 1


def test_cantor_zassenhaus_path_matches_brute_force():
    # small primes take the equal-degree-splitting path too
    for text, q in [("X^3-1", 7), ("X^5-1", 11), ("X^3+X+3", 101), ("X^2-2", 7)]:
        g = IntPoly.parse(text)
        assert roots_mod_prime(g, q).roots == _brute_roots(g, q)


@pytest.mark.parametrize("text", ["X^3-1", "X^5-1", "X^3+X+3", "X^2-2", "X^2+1"])
def test_roots_match_brute_force_at_every_small_prime(text):
    g = IntPoly.parse(text)
    for q in (p for p in range(2, 300) if is_prime(p)):
        if g.discriminant % q == 0:
            with pytest.raises(RamifiedPrime):
                roots_mod_prime(g, q)
        else:
            assert roots_mod_prime(g, q).roots == _brute_roots(g, q), q


def test_split_prime_search_reuses_the_discriminant(monkeypatch):
    g = IntPoly.parse("X^3+X+3")
    calls = []
    real = arith.resultant

    def spy(f, h):
        calls.append((f, h))
        return real(f, h)

    monkeypatch.setattr(arith, "resultant", spy)
    assert find_split_primes(g, 10_000, 12_000)
    assert calls == []


@pytest.mark.parametrize(
    "text", ["X-5", "X^2+1", "X^3-1", "X^3-X", "X^4+1", "X^3+X+3", "X^5-1"]
)
def test_split_primes_match_brute_force_root_counts(text):
    # X^3-1 ramifies at 3, X^3-X has the root 0, X-5 splits everywhere
    g = IntPoly.parse(text)
    want = [
        q
        for q in range(2, 2001)
        if is_prime(q) and g.discriminant % q and len(_brute_roots(g, q)) == g.degree
    ]
    assert find_split_primes(g, 2, 2000) == want


def _split_by_root_finding(g, lo, hi):
    return [
        q for q in range(lo, hi + 1)
        if is_prime(q) and len(roots_mod_prime(g, q).roots) == g.degree
    ]


@pytest.mark.parametrize(
    "lo,hi,segment",
    [
        # a segment ends at isqrt(2^63 - 1) = 3037000499: int64 residues up
        # to there, Python integers in the next segment
        (3037000499 - 1999, 3037000499 + 2000, 1000),
        (2**40, 2**40 + 2000, arith._SEGMENT),
    ],
)
def test_split_primes_match_root_finding_on_large_bands(lo, hi, segment, monkeypatch):
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    g = IntPoly.parse("X^3+X+3")
    got = find_split_primes(g, lo, hi)
    assert got and got == _split_by_root_finding(g, lo, hi)


def test_split_primes_across_sieve_segments(monkeypatch):
    g = IntPoly.parse("X^3+X+3")
    lo, hi = 1_000_003, 1_005_000
    whole = find_split_primes(g, lo, hi)
    primes = list(arith.primes_in_range(lo, hi))
    monkeypatch.setattr(arith, "_SEGMENT", 777)  # seven segments
    assert find_split_primes(g, lo, hi) == whole == _split_by_root_finding(g, lo, hi)
    assert list(arith.primes_in_range(lo, hi)) == primes
    assert primes == [n for n in range(lo, hi + 1) if is_prime(n)]


@pytest.mark.parametrize("lo,hi", [(0, 5000), (2**32 - 3000, 2**32 + 3000), (2**62, 2**62 + 1000)])
def test_primes_in_range_matches_miller_rabin(lo, hi):
    assert list(arith.primes_in_range(lo, hi)) == list(filter(is_prime, range(lo, hi + 1)))


def test_bands_reaching_2_63_are_rejected_before_any_work(monkeypatch):
    def no_scan(lo, hi):
        raise AssertionError("the band was scanned")

    monkeypatch.setattr(arith, "_prime_segments", no_scan)
    g = IntPoly.parse("X^2+1")
    with pytest.raises(OutOfRangeParameter):
        find_split_primes(g, 2**63 - 10**6, 2**63 + 10)
    with pytest.raises(OutOfRangeParameter):
        arith.primes_in_range(2**63 - 10**6, 2**63)


def test_cantor_zassenhaus_large_prime():
    g = IntPoly.parse("X^3+X+3")
    q = find_split_primes(g, 100003, 100400)[0]
    roots = roots_mod_prime(g, q).roots
    assert len(roots) == 3
    assert all(g.eval_mod(r, q) == 0 for r in roots)
    # deterministic across calls
    assert roots == roots_mod_prime(g, q).roots


@pytest.mark.parametrize("text", ["X-5", "X^3+X+3", "X^3-9X-1", "X^5-1", "X^5-X-1"])
def test_batched_roots_match_brute_force_and_single_calls(text):
    g = IntPoly.parse(text)
    qs = [q for q in range(2, 400) if is_prime(q) and g.discriminant % q]
    qs = qs[1::2] + find_split_primes(g, 400, 20000)[:2] + qs[::2] + qs[:3]  # with repeats
    batch = list(roots_mod_primes(g, qs))
    assert [rl.modulus.q for rl in batch] == qs
    assert [rl.roots for rl in batch] == [_brute_roots(g, q) for q in qs]
    assert [rl.roots for rl in batch] == [roots_mod_prime(g, q).roots for q in qs]
    assert 2 in qs
    counts = {len(rl.roots) for rl in batch}
    if g.degree >= 3:  # split and partly split primes, and (but for X^5-1) rootless ones
        assert g.degree in counts and counts & set(range(1, g.degree))
        assert 0 in counts or text == "X^5-1"


def test_batched_roots_on_the_object_dtype_path():
    # a prime above isqrt(2^63 - 1) puts every column of the batch in Python
    # integers, small primes included
    g = IntPoly.parse("X^3+X+3")
    big_split = find_split_primes(g, 2**40, 2**40 + 2000)[0]
    big_other = next(q for q in range(2**40, 2**40 + 2000) if is_prime(q) and q != big_split)
    qs = [2, 31, 37, big_split, big_other, 101]
    batch = list(roots_mod_primes(g, qs))
    for q, rl in zip(qs, batch):
        assert rl.roots == roots_mod_prime(g, q).roots
        assert all(g.eval_mod(r, q) == 0 for r in rl.roots)
        if q < 1000:
            assert rl.roots == _brute_roots(g, q)
    assert len(batch[3].roots) == 3


def test_batched_roots_raise_where_a_loop_of_calls_would():
    g = IntPoly.parse("X^2-2")
    batch = roots_mod_primes(g, [7, 9, 2])
    assert next(batch).roots == (3, 4)
    with pytest.raises(NonPrimeModulus):
        next(batch)
    with pytest.raises(RamifiedPrime):
        list(roots_mod_primes(g, [7, 2, 9]))
    with pytest.raises(OutOfRangeParameter):
        list(roots_mod_primes(g, [7, 2**63 + 1]))
    assert list(roots_mod_primes(g, [])) == []


def test_discriminant_detects_repeated_roots_mod_q():
    for text in ["X^2-2", "X^3+X+3", "X^3-1", "X^5-1"]:
        g = IntPoly.parse(text)
        for q in (p for p in range(2, 100) if is_prime(p)):
            brute = [x for x in range(q) if g.eval_mod(x, q) == 0]
            repeated = any(
                g.eval_mod(x, q) == 0 and g.derivative_mod(x, q) % q == 0
                for x in brute
            )
            if g.discriminant % q != 0:
                assert not repeated
            else:
                # ramified: either a repeated root mod q or degree loss
                # (monic, so here it means a repeated root when all roots stay)
                pass  # only the unramified direction is decidable root-wise


@pytest.mark.parametrize(
    "text,q,n,expected",
    [
        ("X^2-2", 7, 2, (10, 39)),  # 10^2 = 100 = 2 mod 49, 39^2 = 1521 = 2 mod 49
        ("X^3-1", 7, 1, (1, 2, 4)),
        ("X-5", 3, 4, (5,)),
    ],
)
def test_hensel_examples(text, q, n, expected):
    assert hensel_roots(IntPoly.parse(text), q, n).roots == expected


@pytest.mark.parametrize("text,q", [("X^3+X+3", 31), ("X^2-2", 7), ("X^5-1", 11)])
def test_hensel_tower_consistency(text, q):
    g = IntPoly.parse(text)
    for n in range(2, 5):
        top = hensel_roots(g, q, n)
        below = hensel_roots(g, q, n - 1)
        assert sorted(r % q ** (n - 1) for r in top.roots) == list(below.roots)
        assert all(g.eval_mod(r, q**n) == 0 for r in top.roots)
        # lifts reduce to distinct mod-q roots (the bijection at split primes)
        assert sorted(r % q for r in top.roots) == list(hensel_roots(g, q, 1).roots)


@pytest.mark.parametrize("q,expected", [(7, 3), (2, 1), (13, 2)])
def test_multiplicative_generator_examples(q, expected):
    assert multiplicative_generator(q) == expected


def _order(x, q):
    k, y = 1, x
    while y != 1:
        y = y * x % q
        k += 1
    return k


def test_multiplicative_generator_equals_brute_force_below_3000():
    for q in arith.primes_in_range(3, 3000):
        want = next(x for x in range(2, q) if _order(x, q) == q - 1)
        assert multiplicative_generator(q) == want, q


@pytest.mark.parametrize(
    "n",
    [
        1,
        2,
        997 * 997,  # a square of the largest trial divisor
        1009**3,  # a prime cube above the trial-division cap
        2147483629 * 2147483647,  # two primes near 2^31
        2**61 - 2,  # q - 1 for the Mersenne prime q = 2^61 - 1
        2**62,
        (1 << 63) - 25,  # the largest prime below 2^63
        600851475143,
    ],
)
def test_prime_factors_multiply_back_to_primes(n):
    factors = arith._prime_factors(n)
    assert math.prod(factors) == n
    assert all(is_prime(p) for p in factors)
    assert factors == sorted(factors)


def test_multiplicative_generator_above_the_grid_cap():
    # a public entry point: q far above the 2^26 grid cap must still work
    q = 2**61 - 1
    gen = multiplicative_generator(q)
    assert gen == 37
    primes = set(arith._prime_factors(q - 1))
    assert all(pow(gen, (q - 1) // p, q) != 1 for p in primes)
    assert all(any(pow(x, (q - 1) // p, q) == 1 for p in primes) for x in range(2, gen))


def test_multiplicative_generator_has_full_order():
    for q in [5, 11, 101, 30223]:
        gen = multiplicative_generator(q)
        seen = {pow(gen, k, q) for k in range(q - 1)}
        assert len(seen) == q - 1


def test_prime_power_modulus_validation():
    with pytest.raises(NonPrimeModulus):
        PrimePowerModulus(9, 1)
    with pytest.raises(OutOfRangeParameter):
        PrimePowerModulus(2, 63)
    assert PrimePowerModulus(7, 2).modulus == 49


def test_laurent_poly():
    v = LaurentPoly.parse("X+X^-1")
    assert v.terms == ((-1, 1), (1, 1))
    assert v.integralized() == (1, [1, 0, 1])
    assert v.eval_mod(3, 7) == (3 + pow(3, -1, 7)) % 7
    assert not v.is_constant
    assert LaurentPoly.parse("5").is_constant
    assert str(LaurentPoly.parse("X^2")) == "X^2"


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.integers(0, 50),
    st.integers(2, 97),
)
@settings(max_examples=60, deadline=None)
def test_eval_mod_matches_direct_evaluation(coeffs, x, mod):
    coeffs = coeffs + [1]
    try:
        g = IntPoly(tuple(coeffs))
    except ValueError:
        return
    assert g.eval_mod(x, mod) == g(x) % mod
