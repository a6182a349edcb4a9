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
"""
from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple


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


def zsigmondy_corollary_solve(bound: int) -> list[ZsigmondySolution]:
    """All prime solutions of p^m = q^n + 1 with p^m <= bound, classified.

    The three admissible shapes: (3^2 = 2^3 + 1), Fermat primes
    (q = 2, m = 1, n a power of two), and Mersenne primes (p = 2, n = 1,
    m prime).  Any solution outside them is tagged 'unclassified', which the
    property suite treats as a hard failure.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    sieve = prime_sieve(bound)
    out = []
    for q in compress(range(bound), sieve):
        n = 1
        while q ** n + 1 <= bound:
            s = q ** n + 1
            pp = prime_power_decompose(s)
            if pp is not None:
                p, m = pp
                if (q, p, n, m) == (2, 3, 3, 2):
                    case = "nine"
                elif q == 2 and m == 1 and _is_power_of_two(n):
                    case = "fermat"
                elif p == 2 and n == 1 and is_prime(m):
                    case = "mersenne"
                else:
                    case = "unclassified"
                out.append(ZsigmondySolution(p, m, q, n, case))
            n += 1
    out.sort(key=lambda s: (s.p ** s.m, s.q))
    return out


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
