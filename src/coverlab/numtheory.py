"""Executable number-theoretic identities used by the case enumerations.

Everything is exact big-integer arithmetic; the identity checkers evaluate
their own applicability hypotheses instead of assuming them.

This module holds the one factorization in coverlab: prime_powers, a lazy
trial division over 2, 3 and 6k +- 1.  is_prime, prime_power_decompose,
factorize, divisors and six_prime_part (m with its factors 2 and 3 removed)
are views of it, and the other modules call these instead of dividing.
Two views answer small or even inputs without it: is_prime reads a sieve of
the n below SMALL_PRIME_LIMIT (built once at import, 4 KB), and
prime_power_decompose reads an even n off its bits (a power of two or
nothing).

zsigmondy_corollary_solve scans the sieve's primes as an int64 numpy array,
one power at a time.  Its bound is capped at ZSIGMONDY_BOUND_MAX, which
caps the sieve at one byte per integer up to 10^8 and keeps every product
the scan forms below 10^16, inside int64.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

import numpy as np


def _trial_divisors():
    """2, 3, then every 6k - 1 and 6k + 1: a superset of the primes."""
    yield 2
    yield 3
    f = 5
    while True:
        yield f
        yield f + 2
        f += 6


def prime_powers(n: int):
    """Yield (p, e, rest) for each prime power p^e exactly dividing n >= 1.

    Primes come in increasing order and rest is the cofactor still left
    once p^e is divided out, so rest == 1 on the last yield.  The trial
    division is lazy: a caller that stops after the first yield pays only
    for the smallest prime factor.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    for p in _trial_divisors():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e, n
    if n > 1:
        yield n, 1, 1


def prime_sieve(limit: int) -> bytearray:
    """sieve[i] == 1 iff i is prime, for 0 <= i <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return sieve


SMALL_PRIME_LIMIT = 1 << 12
_SMALL_PRIMES = prime_sieve(SMALL_PRIME_LIMIT - 1)


def is_prime(n: int) -> bool:
    if n < SMALL_PRIME_LIMIT:
        return n >= 2 and _SMALL_PRIMES[n] == 1
    return next(prime_powers(n)) == (n, 1, 1)


def prime_power_decompose(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, p prime, e >= 1; None otherwise."""
    if n < 2:
        return None
    if n & 1 == 0:  # only a power of two has no odd prime factor
        return (2, n.bit_length() - 1) if n & (n - 1) == 0 else None
    p, e, rest = next(prime_powers(n))
    return (p, e) if rest == 1 else None


def factorize(n: int) -> dict[int, int]:
    return {p: e for p, e, _ in prime_powers(n)}


def divisors(n: int) -> list[int]:
    """Every positive divisor of n >= 1, ascending."""
    out = [1]
    for p, e, _ in prime_powers(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def six_prime_part(m: int) -> int:
    """m >= 1 with every factor 2 and 3 divided out (its 6'-part)."""
    for p, _, rest in prime_powers(m):
        if p > 3:
            break
        m = rest
    return m


class PPartDecomposition(NamedTuple):
    l: int
    p: int
    p_part: int
    p_prime_part: int


def p_part(l: int, p: int) -> PPartDecomposition:
    """Largest power of p dividing l, plus the cofactor."""
    if l < 1:
        raise ValueError("l must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    part = _p_power(l, p)
    return PPartDecomposition(l=l, p=p, p_part=part, p_prime_part=l // part)


def _p_power(l: int, p: int) -> int:
    """Largest power of the prime p dividing l >= 1."""
    part = 1
    while l % (part * p) == 0:
        part *= p
    return part


class LiftingCheck(NamedTuple):
    q: int
    e: int
    m: int
    p: int
    applicable: bool
    lhs: int | None = None
    rhs: int | None = None
    equal: bool | None = None


def lifting_identity_check(q: int, e: int, m: int, p: int) -> LiftingCheck:
    """p-part lifting: (q^m - e^m)_p = (m)_p (q - e)_p when applicable.

    Applicable for odd p dividing q - e, or for p = 2 when 4 | q - e or m is
    odd.  Both sides are computed exactly.
    """
    if e not in (1, -1):
        raise ValueError("e must be +1 or -1")
    if q < 2 or m < 1:
        raise ValueError("need q >= 2, m >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 2 == 1:
        applicable = (q - e) % p == 0
    else:
        applicable = (q - e) % 4 == 0 or m % 2 == 1
    if not applicable:
        return LiftingCheck(q, e, m, p, False)
    lhs = _p_power(q ** m - e ** m, p)
    rhs = _p_power(m, p) * _p_power(q - e, p)
    return LiftingCheck(q, e, m, p, True, lhs, rhs, lhs == rhs)


class GcdPowerCheck(NamedTuple):
    q: int
    k: int
    m: int
    gcd_value: int
    expected: int
    equal: bool


def gcd_qpow(q: int, k: int, m: int) -> GcdPowerCheck:
    """gcd(q^k - 1, q^m - 1) = q^gcd(k, m) - 1, verified exactly."""
    if q < 2 or k < 1 or m < 1:
        raise ValueError("need q >= 2 and positive exponents")
    val = gcd(q ** k - 1, q ** m - 1)
    want = q ** gcd(k, m) - 1
    return GcdPowerCheck(q, k, m, val, want, val == want)


class ZsigmondySolution(NamedTuple):
    p: int
    m: int
    q: int
    n: int
    case: str  # 'nine', 'fermat', 'mersenne', or 'unclassified'


ZSIGMONDY_BOUND_MAX = 10 ** 8


def zsigmondy_corollary_solve(bound: int) -> list[ZsigmondySolution]:
    """All prime solutions of p^m = q^n + 1 with p^m <= bound, classified.

    The three admissible shapes: (3^2 = 2^3 + 1), Fermat primes
    (q = 2, m = 1, n a power of two), and Mersenne primes (p = 2, n = 1,
    m prime).  Any solution outside them is tagged 'unclassified', which the
    property suite treats as a hard failure.

    Every prime q and n >= 1 with q^n + 1 <= bound is tested.  For each n
    the powers q^n of the sieve's primes form one int64 array, cut to its
    prefix with q^n <= bound - 1.  An even s = q^n + 1 (odd q) is a prime
    power only as a power of two, so only those with s & (s - 1) == 0 reach
    prime_power_decompose, together with the one odd s, from q = 2.  A bound
    above ZSIGMONDY_BOUND_MAX raises before the sieve is allocated.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    if bound > ZSIGMONDY_BOUND_MAX:
        raise ValueError(f"zsigmondy bound {bound} exceeds "
                         f"ZSIGMONDY_BOUND_MAX = {ZSIGMONDY_BOUND_MAX}")
    primes = np.flatnonzero(np.frombuffer(prime_sieve(bound), dtype=np.uint8))
    primes = primes.astype(np.int64, copy=False)  # primes[0] == 2
    out = []
    power, n = primes, 1
    while True:
        power = power[:np.searchsorted(power, bound - 1, side="right")]
        if not power.size:
            break
        s = power + 1
        even = s[1:]
        hits = np.flatnonzero((even & (even - 1)) == 0) + 1
        for i in [0, *hits.tolist()]:
            pp = prime_power_decompose(int(s[i]))
            if pp is not None:
                out.append(_zsigmondy_solution(*pp, int(primes[i]), n))
        power = power * primes[:power.size]
        n += 1
    out.sort(key=lambda s: (s.p ** s.m, s.q))
    return out


def _zsigmondy_solution(p: int, m: int, q: int, n: int) -> ZsigmondySolution:
    if (q, p, n, m) == (2, 3, 3, 2):
        case = "nine"
    elif q == 2 and m == 1 and _is_power_of_two(n):
        case = "fermat"
    elif p == 2 and n == 1 and is_prime(m):
        case = "mersenne"
    else:
        case = "unclassified"
    return ZsigmondySolution(p, m, q, n, case)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def nagell_ljunggren_search(x_max: int, i_max: int) -> list[tuple[int, int, int]]:
    """All (x, i, y) with (x^i - 1)/(x - 1) = y^2, 2 <= x <= x_max, 3 <= i <= i_max."""
    if x_max < 2 or i_max < 3:
        raise ValueError("need x_max >= 2 and i_max >= 3")
    out = []
    for x in range(2, x_max + 1):
        for i in range(3, i_max + 1):
            s = (x ** i - 1) // (x - 1)
            y = isqrt(s)
            if y * y == s:
                out.append((x, i, y))
    return out


def has_coprime6_divisor(m: int) -> bool:
    """Whether m has a divisor >= 2 coprime to 6 (i.e. a prime factor >= 5)."""
    return m >= 1 and six_prime_part(m) > 1
