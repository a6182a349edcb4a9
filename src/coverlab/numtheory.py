"""Executable number-theoretic identities used by the case enumerations.

Everything is exact big-integer arithmetic; the identity checkers evaluate
their own applicability hypotheses instead of assuming them.

This module holds the one factorization in coverlab: prime_powers, a lazy
trial division over 2, 3 and 6k +- 1 up to TRIAL_DIVISION_MAX = 10^7,
past which a cofactor that could still be composite raises
SizeBoundExceeded.  is_prime, prime_power_decompose, factorize, divisors
and six_prime_part (m with its factors 2 and 3 removed) are views of it,
and the other modules call these instead of dividing.  is_prime reads the
first prime power off it, and only prime_power_decompose answers some
inputs without it, reading an even n off its bits (a power of two or
nothing).  prime_sieve, which the twin-power case enumeration reads,
marks the composites in place through one uint8 numpy view of the
bytearray it returns, one slice assignment per prime.

The lifting and gcd identities each have a single-point checker
(lifting_identity_check, gcd_qpow) and a sweep over a grid that returns
its counterexamples in the grid's loop order.  lifting_sweep decides
applicability, which m enters only through its parity, once per (q, e, p)
and parity, and evaluates only the applicable points; gcd_sweep computes
each q^k - 1 once, reads gcd(k, m) off a table built once for every q, and
still checks every ordered pair (k, m).

zsigmondy_corollary_solve needs no sieve: q^n + 1 is even for every odd q,
so a solution with odd q is a power of two, and it enumerates the powers of
two instead of the primes.  Its bound is capped at ZSIGMONDY_BOUND_MAX =
10^8, which bounds that scan of 2^m and of 2^n + 1; past it
SizeBoundExceeded is raised, a limit of the program rather than bad input.
That class lives here, at the foot of the import graph (numtheory
imports no coverlab module), so that every layer raises the one class;
graphcore re-exports it.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

import numpy as np


class SizeBoundExceeded(ValueError):
    """An input past an explicit size bound: a vertex bound, the bound on a
    BLAS product's partial sums past which its float type no longer holds
    every integer, a scan cap such as ZSIGMONDY_BOUND_MAX, or the trial
    divisor bound TRIAL_DIVISION_MAX.  Bounds raise, never clamp or
    round."""


# the largest trial divisor: a cofactor with no prime factor up to it that
# is still above its square raises SizeBoundExceeded.  10^7 is reached in
# about 0.3 s (Python 3.11, 2-vCPU Intel Xeon), and every n up to 10^14
# factors within it
TRIAL_DIVISION_MAX = 10 ** 7


def _trial_divisors():
    """2, 3, then each pair 6k - 1, 6k + 1 with 6k - 1 <= TRIAL_DIVISION_MAX:
    a superset of the primes up to it."""
    yield 2
    yield 3
    for f in range(5, TRIAL_DIVISION_MAX + 1, 6):
        yield f
        yield f + 2


def prime_powers(n: int):
    """Yield (p, e, rest) for each prime power p^e exactly dividing n >= 1.

    Primes come in increasing order and rest is the cofactor still left
    once p^e is divided out, so rest == 1 on the last yield.  The trial
    division is lazy: a caller that stops after the first yield pays only
    for the smallest prime factor.  It stops at TRIAL_DIVISION_MAX: a
    cofactor with no prime factor up to it and above its square, which
    could be composite, raises SizeBoundExceeded when it is reached.
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
    else:
        if n > TRIAL_DIVISION_MAX ** 2:
            raise SizeBoundExceeded(
                f"{n} has no prime factor up to TRIAL_DIVISION_MAX = "
                f"{TRIAL_DIVISION_MAX} and is past its square")
    if n > 1:
        yield n, 1, 1


def prime_sieve(limit: int) -> bytearray:
    """sieve[i] == 1 iff i is prime, for 0 <= i <= limit.

    The composites are marked in place through one uint8 numpy view of the
    returned bytearray, one slice assignment per prime up to sqrt(limit).
    """
    sieve = bytearray([1]) * (limit + 1)
    marks = np.frombuffer(sieve, dtype=np.uint8)
    marks[:2] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            marks[i * i::i] = 0
    return sieve


def is_prime(n: int) -> bool:
    """Whether n is prime: n >= 2 is its own first prime power."""
    return n >= 2 and next(prime_powers(n)) == (n, 1, 1)


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
    """The divisors of n >= 1, ascending."""
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
    if not _lifting_applicable(q - e, m, p):
        return LiftingCheck(q, e, m, p, False)
    lhs = _p_power(q ** m - e ** m, p)
    rhs = _p_power(m, p) * _p_power(q - e, p)
    return LiftingCheck(q, e, m, p, True, lhs, rhs, lhs == rhs)


def _lifting_applicable(d: int, m: int, p: int) -> bool:
    """Whether the lifting identity holds by hypothesis at q - e = d: p odd
    dividing d, or p = 2 with 4 | d or m odd.  m counts only by parity."""
    if p % 2 == 1:
        return d % p == 0
    return d % 4 == 0 or m % 2 == 1


def lifting_sweep(q_max: int, m_max: int,
                  primes) -> list[tuple[int, int, int, int]]:
    """The (q, e, m, p) with 2 <= q <= q_max, e in (1, -1), 1 <= m <= m_max
    and p in primes where lifting_identity_check is applicable and unequal,
    in that loop order.

    Applicability depends on m only through its parity, so it is decided
    once per (q, e, p) for odd m and once for even m, and only the
    applicable points are evaluated.  Each p is tested for primality once,
    and (m)_p and (q - e)_p are computed once each.
    """
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    m_part = {(m, p): _p_power(m, p)
              for m in range(1, m_max + 1) for p in primes}
    bad = []
    for q in range(2, q_max + 1):
        for e in (1, -1):
            d = q - e
            # [even m, odd m] -> the applicable (p, (q - e)_p)
            live = [[(p, _p_power(d, p)) for p in primes
                     if _lifting_applicable(d, parity, p)] for parity in (0, 1)]
            power = 1
            for m in range(1, m_max + 1):
                power *= q
                x = power - e ** m
                for p, d_part in live[m & 1]:
                    if _p_power(x, p) != m_part[m, p] * d_part:
                        bad.append((q, e, m, p))
    return bad


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


def gcd_sweep(q_max: int, k_max: int) -> list[tuple[int, int, int]]:
    """The (q, k, m) with 2 <= q <= q_max and 1 <= k, m <= k_max where
    gcd_qpow is unequal, in that loop order.  q^k - 1 is computed once per
    (q, k) and gcd(k, m) once per (k, m); every ordered pair (k, m) is still
    checked for every q."""
    exps = range(1, k_max + 1)
    gcds = [[gcd(k, m) for m in exps] for k in exps]  # gcds[k-1][m-1]
    bad = []
    for q in range(2, q_max + 1):
        less = [q ** k - 1 for k in range(k_max + 1)]  # less[0] = 0
        for k, row in zip(exps, gcds):
            for m, g in zip(exps, row):
                if gcd(less[k], less[m]) != less[g]:
                    bad.append((q, k, m))
    return bad


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

    The solutions are read off the powers of two, in (p^m, q) order.  For
    q = 2, each odd s = 2^n + 1 <= bound goes to prime_power_decompose.  For
    odd q, s = q^n + 1 is even, so it is a prime power only as s = 2^m: for
    each 2^m <= bound and each n with 3^n <= 2^m - 1, the exact integer n-th
    root q of 2^m - 1 is taken, and (2, m, q, n) is a solution when
    q^n = 2^m - 1 and q is prime.  A bound above ZSIGMONDY_BOUND_MAX raises
    SizeBoundExceeded.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    if bound > ZSIGMONDY_BOUND_MAX:
        raise SizeBoundExceeded(f"zsigmondy bound {bound} exceeds "
                                f"ZSIGMONDY_BOUND_MAX = {ZSIGMONDY_BOUND_MAX}")
    out = []
    n = 1
    while 2 ** n + 1 <= bound:
        pp = prime_power_decompose(2 ** n + 1)
        if pp is not None:
            out.append(_zsigmondy_solution(*pp, 2, n))
        n += 1
    m = 2  # 2^1 - 1 = 1 is no q^n
    while 2 ** m <= bound:
        x = 2 ** m - 1
        n = 1
        while 3 ** n <= x:
            q = _integer_root(x, n)
            if q ** n == x and is_prime(q):
                out.append(_zsigmondy_solution(2, m, q, n))
            n += 1
        m += 1
    out.sort(key=lambda s: (s.p ** s.m, s.q))
    return out


def _integer_root(x: int, n: int) -> int:
    """The largest q with q^n <= x, for x >= 1: a float estimate corrected
    by integer comparisons."""
    q = round(x ** (1 / n))
    while q ** n > x:
        q -= 1
    while (q + 1) ** n <= x:
        q += 1
    return q


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
    """All (x, i, y) with (x^i - 1)/(x - 1) = y^2, 2 <= x <= x_max, 3 <= i <= i_max.

    The repunit 1 + x + ... + x^(i-1) is carried from i to i + 1 as
    s * x + 1, with no power or division per point."""
    if x_max < 2 or i_max < 3:
        raise ValueError("need x_max >= 2 and i_max >= 3")
    out = []
    for x in range(2, x_max + 1):
        s = 1 + x  # i = 2
        for i in range(3, i_max + 1):
            s = s * x + 1
            y = isqrt(s)
            if y * y == s:
                out.append((x, i, y))
    return out


def has_coprime6_divisor(m: int) -> bool:
    """Whether m has a divisor >= 2 coprime to 6 (i.e. a prime factor >= 5)."""
    return m >= 1 and six_prime_part(m) > 1
