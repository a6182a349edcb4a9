"""Exact identity checkers and their exhaustive sweeps."""
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from coverlab.numtheory import (GcdPowerCheck, divisors, gcd_qpow,
                                has_coprime6_divisor, is_prime,
                                lifting_identity_check,
                                nagell_ljunggren_search, p_part, prime_powers,
                                prime_sieve, prime_power_decompose,
                                six_prime_part, zsigmondy_corollary_solve)

PRIMES_50 = [p for p in range(2, 51) if is_prime(p)]


def test_p_part_examples():
    d = p_part(63, 3)
    assert (d.p_part, d.p_prime_part) == (9, 7)
    assert d.p_part * d.p_prime_part == 63
    assert p_part(63, 2).p_part == 1
    assert p_part(2400, 2).p_part == 32
    with pytest.raises(ValueError):
        p_part(10, 4)
    with pytest.raises(ValueError):
        p_part(0, 2)


@given(st.integers(min_value=1, max_value=10**9),
       st.sampled_from(PRIMES_50))
def test_p_part_reconstruction(l, p):
    d = p_part(l, p)
    assert d.p_part * d.p_prime_part == l
    assert d.p_prime_part % p != 0
    assert d.p_part & (d.p_part - 1) == 0 if p == 2 else True


def test_lifting_examples():
    chk = lifting_identity_check(4, 1, 3, 3)
    assert (chk.lhs, chk.rhs, chk.equal) == (9, 9, True)
    chk = lifting_identity_check(5, -1, 3, 3)
    assert (chk.lhs, chk.rhs, chk.equal) == (9, 9, True)
    assert not lifting_identity_check(3, 1, 2, 2).applicable


def test_lifting_tests_p_for_primality_once(monkeypatch):
    from coverlab import numtheory
    calls = []
    real = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime",
                        lambda n: calls.append(n) or real(n))
    chk = lifting_identity_check(10, 1, 9, 3)  # 10^9 - 1 = 3^4 * 12345679
    assert (chk.lhs, chk.rhs, chk.equal) == (81, 81, True)
    assert calls == [3]


def test_lifting_exhaustive_sweep():
    """Spec bounds: q <= 50, m <= 30, p <= 50; zero counterexamples."""
    bad = []
    for q in range(2, 51):
        for e in (1, -1):
            for m in range(1, 31):
                for p in PRIMES_50:
                    chk = lifting_identity_check(q, e, m, p)
                    if chk.applicable and not chk.equal:
                        bad.append((q, e, m, p))
    assert bad == []


def test_gcd_examples():
    assert gcd_qpow(2, 6, 4) == GcdPowerCheck(2, 6, 4, 3, 3, True)
    assert gcd_qpow(3, 4, 6).gcd_value == 8
    assert gcd_qpow(5, 7, 7).gcd_value == 5 ** 7 - 1


def test_gcd_exhaustive_sweep():
    for q in range(2, 21):
        for k in range(1, 41):
            for m in range(1, 41):
                assert gcd_qpow(q, k, m).equal


def test_zsigmondy_expected_members():
    sols = zsigmondy_corollary_solve(10_000)
    keyed = {(s.p, s.m, s.q, s.n): s.case for s in sols}
    assert keyed[(3, 2, 2, 3)] == "nine"
    assert keyed[(5, 1, 2, 2)] == "fermat"
    assert keyed[(17, 1, 2, 4)] == "fermat"
    assert keyed[(257, 1, 2, 8)] == "fermat"
    for p, m, q, n in [(2, 2, 3, 1), (2, 3, 7, 1), (2, 5, 31, 1),
                       (2, 7, 127, 1), (2, 13, 8191, 1)]:
        assert keyed[(p, m, q, n)] == "mersenne"


def test_zsigmondy_full_classification_to_million():
    sols = zsigmondy_corollary_solve(10**6)
    assert sols and all(s.case != "unclassified" for s in sols)
    for s in sols:
        assert s.p ** s.m == s.q ** s.n + 1
        assert is_prime(s.p) and is_prime(s.q)


def test_zsigmondy_brute_oracle_small():
    """Independent double loop up to 5000 must find the same solutions.

    Primality comes from the sieve: the solver factors through the same
    engine as is_prime."""
    bound = 5000
    sieve = prime_sieve(bound)
    brute = set()
    for p in range(2, bound):
        if not sieve[p]:
            continue
        pm = p
        m = 1
        while pm <= bound:
            q_n = pm - 1
            for q in range(2, q_n + 1):
                if not sieve[q]:
                    continue
                qn = q
                n = 1
                while qn <= q_n:
                    if qn == q_n:
                        brute.add((p, m, q, n))
                    qn *= q
                    n += 1
            pm *= p
            m += 1
    got = {(s.p, s.m, s.q, s.n) for s in zsigmondy_corollary_solve(bound)}
    assert got == brute


def test_nagell_ljunggren():
    assert sorted(nagell_ljunggren_search(200, 20)) == [(3, 5, 11), (7, 4, 20)]
    assert nagell_ljunggren_search(6, 20) == [(3, 5, 11)]
    assert nagell_ljunggren_search(2, 3) == []
    # y-values from the quotients themselves
    assert (7 ** 4 - 1) // 6 == 400 == 20 ** 2
    assert (3 ** 5 - 1) // 2 == 121 == 11 ** 2


def test_prime_power_decompose():
    assert prime_power_decompose(1) is None
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(97) == (97, 1)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300)
def test_prime_power_decompose_consistent(n):
    pp = prime_power_decompose(n)
    if pp is not None:
        p, e = pp
        assert is_prime(p) and p ** e == n


def test_prime_sieve_matches_trial_division():
    sieve = prime_sieve(10**5)
    for n in range(10**5 + 1):
        assert bool(sieve[n]) == is_prime(n)


def _divisor_lists(limit: int) -> list[list[int]]:
    """divs[n] for n <= limit, by marking the multiples of every d."""
    divs = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            divs[m].append(d)
    return divs


def test_divisors_and_prime_powers_brute_force():
    """A prime power p^e has exactly the e + 1 divisors 1, p, ..., p^e."""
    divs = _divisor_lists(5000)
    assert prime_power_decompose(0) is None
    assert prime_power_decompose(1) is None
    for n in range(1, 5001):
        assert divisors(n) == divs[n]
        if n >= 2:
            p, e = divs[n][1], len(divs[n]) - 1
            assert prime_power_decompose(n) == ((p, e) if p ** e == n else None)
        assert six_prime_part(n) == max(d for d in divs[n]
                                        if d % 2 and d % 3)
    with pytest.raises(ValueError):
        divisors(0)


SIEVE_1E6 = prime_sieve(10**6)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=500)
def test_prime_powers_reconstruct_n(n):
    product, last = 1, 1
    for p, e, rest in prime_powers(n):
        assert SIEVE_1E6[p] and p > last
        product *= p ** e
        assert product * rest == n
        last = p
    assert product == n


def test_admissible_r_matches_range_scan():
    """The divisors >= 2 of the 6'-part of t-1 equal the O(t) range scan."""
    for t in range(2, 5000):
        scan = [r for r in range(2, t) if (t - 1) % r == 0 and gcd(6, r) == 1]
        assert divisors(six_prime_part(t - 1))[1:] == scan


def test_has_coprime6_divisor():
    assert has_coprime6_divisor(10) and has_coprime6_divisor(35)
    assert not has_coprime6_divisor(1)
    assert not has_coprime6_divisor(8)
    assert not has_coprime6_divisor(6)
    assert not has_coprime6_divisor(72)


@given(st.integers(min_value=2, max_value=500),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=200)
def test_gcd_identity_property(q, k, m):
    assert gcd(q ** k - 1, q ** m - 1) == q ** gcd(k, m) - 1
