"""Exact identity checkers and their exhaustive sweeps."""
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from coverlab.numtheory import (GcdPowerCheck, LiftingCheck, divisors,
                                gcd_qpow, has_coprime6_divisor, is_prime,
                                lifting_identity_check,
                                nagell_ljunggren_search, prime_powers,
                                prime_sieve, prime_power_decompose,
                                six_prime_part, zsigmondy_corollary_solve)
from coverlab import graphcore, numtheory
from coverlab.params import admissible_pairs
from conftest import p_part

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
    from coverlab import graphcore, numtheory
    calls = []
    real = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime",
                        lambda n: calls.append(n) or real(n))
    chk = lifting_identity_check(10, 1, 9, 3)  # 10^9 - 1 = 3^4 * 12345679
    assert (chk.lhs, chk.rhs, chk.equal) == (81, 81, True)
    assert calls == [3]


def _lifting_point_loop(q_max, m_max, primes):
    """lifting_sweep's oracle: lifting_identity_check at every point, with
    the points it applies at."""
    bad, applicable = [], []
    for q in range(2, q_max + 1):
        for e in (1, -1):
            for m in range(1, m_max + 1):
                for p in primes:
                    chk = lifting_identity_check(q, e, m, p)
                    if chk.applicable:
                        applicable.append((q, e, m, p))
                        if not chk.equal:
                            bad.append((q, e, m, p))
    return bad, applicable


def test_lifting_exhaustive_sweep():
    """Spec bounds: q <= 50, m <= 30, p <= 50; zero counterexamples, the
    same as the point loop, which applies at 4980 of the 44100 points."""
    bad, applicable = _lifting_point_loop(50, 30, PRIMES_50)
    assert numtheory.lifting_sweep(50, 30, PRIMES_50) == bad == []
    assert len(applicable) == 4980
    with pytest.raises(ValueError):
        numtheory.lifting_sweep(5, 5, [2, 4])


@pytest.mark.parametrize("value", [5 ** 4 - 1, 3 ** 5 - 1])
def test_lifting_sweep_sees_a_planted_fault(value, monkeypatch):
    """A wrong 2-part of one value is seen by the sweep at the same points
    as by the point loop: 5^4 - 1 = 25^2 - 1 at even m, and 3^5 - 1 at odd
    m, where p = 2 applies only since m is odd."""
    real = numtheory._p_power
    monkeypatch.setattr(numtheory, "_p_power", lambda l, p: real(l, p)
                        * (2 if (l, p) == (value, 2) else 1))
    bad, _ = _lifting_point_loop(50, 30, PRIMES_50)
    assert numtheory.lifting_sweep(50, 30, PRIMES_50) == bad
    assert bad == ([(5, 1, 4, 2), (25, 1, 2, 2)] if value == 624 else
                   [(3, 1, 5, 2)])


@pytest.mark.parametrize("make,field", [
    (lambda: p_part(63, 3), "p_part"),
    (lambda: lifting_identity_check(5, 1, 4, 2), "equal"),
    (lambda: lifting_identity_check(3, 1, 2, 2), "applicable"),
    (lambda: gcd_qpow(2, 6, 4), "gcd_value"),
    (lambda: zsigmondy_corollary_solve(100)[0], "case"),
], ids=["p_part", "lifting", "lifting_inapplicable", "gcd", "zsigmondy"])
def test_records_are_immutable_and_hashable(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert record == make() and hash(record) == hash(make())


def test_lifting_check_defaults():
    chk = LiftingCheck(3, 1, 2, 2, False)
    assert (chk.lhs, chk.rhs, chk.equal) == (None, None, None)
    assert lifting_identity_check(3, 1, 2, 2) == chk


def test_gcd_examples():
    assert gcd_qpow(2, 6, 4) == GcdPowerCheck(2, 6, 4, 3, 3, True)
    assert gcd_qpow(3, 4, 6).gcd_value == 8
    assert gcd_qpow(5, 7, 7).gcd_value == 5 ** 7 - 1


def _gcd_point_loop(q_max, k_max):
    """gcd_sweep's oracle: gcd_qpow at every point."""
    return [(q, k, m) for q in range(2, q_max + 1)
            for k in range(1, k_max + 1) for m in range(1, k_max + 1)
            if not gcd_qpow(q, k, m).equal]


def test_gcd_exhaustive_sweep():
    assert numtheory.gcd_sweep(20, 40) == _gcd_point_loop(20, 40) == []


def test_gcd_sweep_sees_a_planted_fault(monkeypatch):
    """A gcd that is wrong on one ordered pair of values and right on its
    swap is seen at that (q, k, m) only, by the sweep and the point loop."""
    real = gcd
    wrong = (3 ** 6 - 1, 3 ** 4 - 1)
    monkeypatch.setattr(numtheory, "gcd",
                        lambda a, b: real(a, b) + ((a, b) == wrong))
    assert numtheory.gcd_sweep(5, 8) == _gcd_point_loop(5, 8) == [(3, 6, 4)]


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


# every p^m up to 10^8, written from the admissible shapes: the Fermat
# primes 2^(2^k) + 1, the powers 2^m whose 2^m - 1 is a Mersenne prime,
# and 9 = 2^3 + 1; none lies in (10^6, 10^8]
ZSIGMONDY_VALUES = sorted([2 ** 2 ** k + 1 for k in range(5)]
                          + [2 ** m for m in (2, 3, 5, 7, 13, 17, 19)] + [9])


def test_zsigmondy_values_to_million():
    got = sorted(s.p ** s.m for s in zsigmondy_corollary_solve(10**6))
    assert got == ZSIGMONDY_VALUES


def test_zsigmondy_at_the_cap():
    """The scan at ZSIGMONDY_BOUND_MAX = 10^8 gives the same 13 values,
    every one classified."""
    sols = zsigmondy_corollary_solve(numtheory.ZSIGMONDY_BOUND_MAX)
    assert sorted(s.p ** s.m for s in sols) == ZSIGMONDY_VALUES
    assert len(sols) == 13
    assert all(s.case != "unclassified" for s in sols)


def test_zsigmondy_scan_reads_no_sieve(monkeypatch):
    """The solutions are read off the powers of two: the scan runs with
    prime_sieve unusable."""
    def no_sieve(limit):
        raise AssertionError(f"prime_sieve({limit}) was called")

    monkeypatch.setattr(numtheory, "prime_sieve", no_sieve)
    got = sorted(s.p ** s.m for s in zsigmondy_corollary_solve(10**6))
    assert got == ZSIGMONDY_VALUES


def _zsigmondy_brute(bound):
    """Every (p, m, q, n) with p^m = q^n + 1 <= bound, by a double loop over
    prime powers; primality comes from the sieve."""
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
    return brute


def test_zsigmondy_brute_oracle_small():
    """Independent double loop up to 5000 must find the same solutions.

    Primality comes from the sieve: the solver factors through the same
    engine as is_prime."""
    got = {(s.p, s.m, s.q, s.n) for s in zsigmondy_corollary_solve(5000)}
    assert got == _zsigmondy_brute(5000)


def test_zsigmondy_scan_boundaries():
    """At a bound equal to each solution value p^m <= 5000, and one below
    it, the scan finds exactly the brute solutions up to that bound, in
    (p^m, q) order: q^n + 1 <= bound is inclusive."""
    brute = _zsigmondy_brute(5000)
    values = sorted({p ** m for p, m, _, _ in brute})
    assert values == [3, 4, 5, 8, 9, 17, 32, 128, 257]
    for bound in sorted({b for v in values for b in (v - 1, v) if b >= 4}):
        sols = zsigmondy_corollary_solve(bound)
        keys = [(s.p, s.m, s.q, s.n) for s in sols]
        assert keys == sorted({k for k in brute if k[0] ** k[1] <= bound},
                              key=lambda k: (k[0] ** k[1], k[2])), bound


def test_zsigmondy_bound_is_capped():
    assert numtheory.SizeBoundExceeded is graphcore.SizeBoundExceeded
    limit = numtheory.ZSIGMONDY_BOUND_MAX
    with pytest.raises(numtheory.SizeBoundExceeded,
                       match=f"exceeds ZSIGMONDY_BOUND_MAX = {limit}"):
        zsigmondy_corollary_solve(limit + 1)
    with pytest.raises(ValueError, match="at least 4"):
        zsigmondy_corollary_solve(3)


def test_nagell_ljunggren():
    assert sorted(nagell_ljunggren_search(200, 20)) == [(3, 5, 11), (7, 4, 20)]
    # the carried repunit against a fresh power and division per point
    repunits = {(x, i): (x ** i - 1) // (x - 1)
                for x in range(2, 201) for i in range(3, 21)}
    assert nagell_ljunggren_search(200, 20) == [
        (x, i, isqrt(s)) for (x, i), s in repunits.items()
        if isqrt(s) ** 2 == s]
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


def _trial_prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e by trial division written here; None otherwise."""
    if n < 2:
        return None
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def test_prime_power_decompose_and_is_prime_oracle():
    """None exactly off the prime powers, every even n included (read off
    its bits), and is_prime exactly at the primes, for n up to 20 000."""
    for n in range(-5, 20_001):
        want = _trial_prime_power(n)
        assert prime_power_decompose(n) == want, n
        assert is_prime(n) == (want is not None and want[1] == 1), n


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


def test_prime_powers_bound(monkeypatch):
    """Trial division stops at TRIAL_DIVISION_MAX (patched to 100 here):
    an n whose cofactor has no prime factor up to the bound factors while
    that cofactor is at most the bound's square, and raises past it.  A
    small prime factor is still found first, so is_prime answers a large
    even n."""
    monkeypatch.setattr(numtheory, "TRIAL_DIVISION_MAX", 100)
    for n in (9973, 97 * 89, 2 ** 80 * 9973, 10 ** 4):
        assert list(prime_powers(n)) == [
            (p, e, rest) for p, e, rest in _brute_prime_powers(n)]
    for n in (101 * 103, 101 ** 2, 2 ** 5 * 101 * 103, 10007 * 10009):
        with pytest.raises(numtheory.SizeBoundExceeded,
                           match="TRIAL_DIVISION_MAX = 100"):
            list(prime_powers(n))
    assert not is_prime(2 * 101 * 103)


def _brute_prime_powers(n):
    """prime_powers' records by unbounded trial division."""
    p = 2
    while n > 1:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e, n
        p += 1


def test_admissible_pairs_matches_six_prime_part_divisors():
    """The r that admissible_pairs gives each t are the divisors >= 2 of the
    6'-part of t-1, from one factorization of t-1."""
    by_t = {}
    for t, r in zip(*(a.tolist() for a in admissible_pairs(10_000))):
        by_t.setdefault(t, []).append(r)
    for t in range(2, 10_001):
        assert by_t.get(t, []) == divisors(six_prime_part(t - 1))[1:], t


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
