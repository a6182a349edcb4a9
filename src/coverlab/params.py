"""Parameter calculus for antipodal (n, r, mu)-covers of complete graphs.

An (n, r, mu)-cover has four distinct eigenvalues n-1 > theta > -1 > tau,
where theta and tau are the roots of x^2 - (lambda - mu)x - (n - 1) = 0 and
lambda = n - (r-1)mu - 2.  Everything here is exact, so feasibility
(integrality and positivity of multiplicities) is decided without rounding.
derive_params stores the spectrum as quadratic surds (QuadExt); the
family tables store plain ints wherever their closed forms make a value an
integer, and exact.is_integral reads integrality off either type.

The two extremal families enumerated here are the even-fibre family
(n = (t^2-2)(t^2-1)/2, lines meeting the real absolute bound) and the
odd-fibre family (n = (t^2-1)^2, lines meeting the complex absolute bound,
i.e. SIC-POVM-sized systems), together with their known sporadic members.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

import numpy as np

from .exact import QuadExt, is_integral, quad_json, rational_json
from .numtheory import SizeBoundExceeded, divisors


class ParameterError(ValueError):
    """Raised for parameter triples outside the admissible domain."""


class CoverParams(NamedTuple):
    """The quadruple (n, r, mu, lambda) with its exact spectrum.

    Type rule: theta, tau, m_theta and m_tau are plain ints only where a
    closed form makes them integers (family_B and integer-t family_A);
    otherwise, as from derive_params, they are QuadExt.  Both types compare,
    hash and serialise alike, so a record equals its derive_params oracle
    and writes the same JSON.
    """

    n: int
    r: int
    mu: int
    lam: int
    theta: int | QuadExt
    tau: int | QuadExt
    m_theta: int | QuadExt
    m_tau: int | QuadExt

    @property
    def v(self) -> int:
        return self.n * self.r

    @property
    def k(self) -> int:
        """Degree of the cover (one matched neighbour per other fibre)."""
        return self.n - 1

    @property
    def multiplicities_integral(self) -> bool:
        return (is_integral(self.m_theta) and is_integral(self.m_tau)
                and self.m_theta > 0 and self.m_tau > 0)

    def to_json(self) -> dict:
        return {
            "n": self.n, "r": self.r, "mu": self.mu, "lambda": self.lam,
            "theta": quad_json(self.theta), "tau": quad_json(self.tau),
            "m_theta": rational_json(self.m_theta),
            "m_tau": rational_json(self.m_tau),
            "v": self.v,
        }


class FamilyBParams(NamedTuple):
    """Odd-fibre extremal family member, indexed by t = -tau."""

    t: int
    r: int
    params: CoverParams
    special: bool = False  # the (9, 3, 3) exception, not an instance of the t-formula


def derive_params(n: int, r: int, mu: int) -> CoverParams:
    """Populate the full exact parameter set from the triple (n, r, mu).

    With b = lambda - mu, Delta = b^2 + 4(n-1) and h = (r-1)n/2, the
    spectrum is the closed form theta, tau = (b +- sqrt(Delta))/2 and
    m_theta, m_tau = h -+ sqrt(Delta) hb/Delta; these solve
    m_theta + m_tau = (r-1)n and theta m_theta + tau m_tau = 0.
    """
    if n < 3:
        raise ParameterError(f"n must be at least 3, got {n}")
    if r < 2:
        raise ParameterError(f"r must be at least 2, got {r}")
    if mu < 1:
        raise ParameterError(f"mu must be at least 1, got {mu}")
    lam = n - (r - 1) * mu - 2
    if lam < 0:
        raise ParameterError(f"lambda = n-(r-1)mu-2 = {lam} is negative")

    b = lam - mu
    disc = b * b + 4 * (n - 1)  # > 0 as n >= 3
    h = Fraction((r - 1) * n, 2)
    root = QuadExt.sqrt(disc)
    theta, tau = (root + b) * Fraction(1, 2), (b - root) * Fraction(1, 2)
    skew = root * (h * b / disc)
    return CoverParams(n, r, mu, lam, theta, tau, h - skew, h + skew)


def family_B(t: int, r: int) -> FamilyBParams:
    """Odd-fibre family member (n, r, mu) = ((t^2-1)^2, r, (t-1)^2(t^2+t-1)/r).

    (t, r) must be one of admissible_pairs: r >= 2 divides t-1 and is
    prime to 6.  The spectrum is the closed forms tau = -t, theta =
    t(t^2-2), m_theta = (t^2-1)(r-1), m_tau = (t^2-2) m_theta.
    The pair (t, r) = (2, 3) is the genuine exception with (n, r, mu) =
    (9, 3, 3); it does not satisfy the t-parametrisation (which would give
    mu = 5/3) and is returned tagged as special.
    """
    if t < 2:
        raise ParameterError(f"t must be at least 2, got {t}")
    if r < 2:
        raise ParameterError(f"r must be at least 2, got {r}")
    if (t, r) == (2, 3):
        return FamilyBParams(t=2, r=3, params=derive_params(9, 3, 3), special=True)
    if (t - 1) % r or gcd(6, r) != 1:
        raise ParameterError(f"r = {r} is not a divisor of t-1 = {t - 1} "
                             "prime to 6")
    return _family_B_member(t, r)


def _family_B_member(t: int, r: int) -> FamilyBParams:
    """family_B's record at an admissible pair (t, r), unchecked: the
    closed forms of _family_B_values wrapped in a CoverParams."""
    return FamilyBParams(t, r, CoverParams(*_family_B_values(t, r)))


def _family_B_values(t: int, r: int) -> tuple[int, ...]:
    """family_B's closed forms at an admissible pair (t, r), unchecked: the
    CoverParams fields (n, r, mu, lambda, theta, tau, m_theta, m_tau) as
    one tuple of ints."""
    n = (t * t - 1) ** 2
    mu = (t - 1) ** 2 * (t * t + t - 1) // r
    m_theta = (t * t - 1) * (r - 1)
    return (n, r, mu, n - (r - 1) * mu - 2, t * (t * t - 2), -t,
            m_theta, (t * t - 2) * m_theta)


def family_A(t, r: int, sign: int = +1) -> CoverParams:
    """Even-fibre family member with n = (t^2-2)(t^2-1)/2.

    For r >= 4 only the branch mu = (t-1)^3 (t+2) / (2r) exists and t must be
    an integer >= 3.  For r = 2 both branches are admitted and t may also be
    sqrt(5) (pass t = QuadExt.sqrt(5)); sign = +1 selects
    mu = (t-1)^3 (t+2)/(2r), sign = -1 the companion (t+1)^3 (t-2)/(2r).

    For integer t the spectrum is the closed forms below, stored as ints;
    they are the roots of x^2 - (lambda-mu)x - (n-1) and the multiplicities
    derive_params gives (tests hold them to it).  t = sqrt(5) is the
    icosahedron, (n, r, mu) = (6, 2, 2), read off derive_params.
    """
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    tq = t if isinstance(t, QuadExt) else QuadExt(t)
    if r == 2:
        if not ((is_integral(tq) and int(tq) >= 2) or tq == QuadExt.sqrt(5)):
            raise ParameterError("for r = 2, t must be an integer >= 2 or sqrt(5)")
    elif r >= 4:
        if sign != +1:
            raise ParameterError("the sign = -1 branch exists only for r = 2")
        if not (is_integral(tq) and int(tq) >= 3):
            raise ParameterError("for r >= 4, t must be an integer >= 3")
    else:
        raise ParameterError(f"r must be 2 or >= 4, got {r}")

    if not is_integral(tq):  # t = sqrt(5): both signs give the icosahedron
        return derive_params(6, 2, 2)

    t = int(tq)
    poly = _mu_poly(t, sign)
    if poly % (2 * r) or poly <= 0:
        raise ParameterError(
            f"mu = {Fraction(poly, 2 * r)} is not a positive integer")
    return _family_A_member(t, r, sign)


def _mu_poly(t: int, sign: int) -> int:
    """2r mu on the branch sign: (t-1)^3 (t+2) or (t+1)^3 (t-2)."""
    return (t - 1) ** 3 * (t + 2) if sign == +1 else (t + 1) ** 3 * (t - 2)


def _family_A_member(t: int, r: int, sign: int) -> CoverParams:
    """family_A's closed forms at an integer t, unchecked: mu is a positive
    integer and r, sign are as family_A admits them."""
    n = (t * t - 2) * (t * t - 1) // 2  # t^2-2, t^2-1 are consecutive: even
    mu = _mu_poly(t, sign) // (2 * r)
    # lambda - mu = +-(t^3-5t)/2, so lambda >= 0 once mu >= 1 (sign -1 has
    # t >= 3).  Sign +1: theta = t(t^2-3)/2, tau = -t; sign -1: theta = t,
    # tau = -t(t^2-3)/2 (t(t^2-3) is even).  The eigenvalue +-t(t^2-3)/2
    # has multiplicity (r-1)(t^2-2), and +-t has (r-1)(t^2-2)(t^2-3)/2.
    lam = n - (r - 1) * mu - 2
    big = t * (t * t - 3) // 2
    m_small = (r - 1) * (t * t - 2)
    m_big = m_small * (t * t - 3) // 2
    if sign == +1:
        return CoverParams(n, r, mu, lam, big, -t, m_small, m_big)
    return CoverParams(n, r, mu, lam, t, -big, m_big, m_small)


def admissible_pairs(t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (t, r) with 2 <= t <= t_max, r >= 2, r | t-1 and
    gcd(6, r) = 1, as two aligned int64 arrays (t, r), by r ascending and
    then t ascending.

    r runs over 5, 7, 11, 13, ... (the 6k -+ 1 below t_max) and t over
    r+1, 2r+1, ... up to t_max, so no t-1 is factored: each r is repeated
    (t_max-1) // r times and t = 1 + kr is laid out by one cumsum, with no
    Python step per pair.  Every value is at most t_max.
    """
    low = np.arange(5, t_max, 6, dtype=np.int64)
    r = np.stack((low, low + 2), axis=1).ravel()
    r = r[r < t_max]
    counts = (t_max - 1) // r
    # k = 1, 2, ... within each r: a cumsum of ones that drops back to 1
    # where the next r begins
    k = np.ones(counts.sum(), dtype=np.int64)
    k[np.cumsum(counts[:-1])] -= counts[:-1]
    r = np.repeat(r, counts)
    return 1 + np.cumsum(k) * r, r


FEASIBLE_B_T_MAX = 10 ** 5


def feasible_B(t_max: int) -> list[FamilyBParams]:
    """All odd-fibre family members with t <= t_max, in (t, r) order.

    Entries are the pairs of _family_B_pairs(t_max), each through
    _family_B_member, plus the special (9, 3, 3) member listed first (as
    t = 2, which has no admissible r).  The closed forms are evaluated on
    Python ints: m_tau grows like t^5 and would leave int64 past t ~ 6000.
    The rows grow like t_max log t_max: FEASIBLE_B_T_MAX = 10^5 gives
    330 324 of them at a 169 MiB traced peak, and a larger t_max raises
    SizeBoundExceeded before any pair is laid out.  `params feasible-b`
    writes its rows from _family_B_values on the same pairs, with no
    record per row.
    """
    ts, rs = _family_B_pairs(t_max)
    return [family_B(2, 3)] + list(map(_family_B_member, ts, rs))


def _family_B_pairs(t_max: int) -> tuple[list[int], list[int]]:
    """feasible_B's member pairs (t, r) as two aligned lists of ints:
    admissible_pairs(t_max) ordered by np.lexsort on (t, r).  t_max < 2
    and t_max > FEASIBLE_B_T_MAX raise before any pair is laid out."""
    if t_max < 2:
        raise ParameterError("t_max must be at least 2")
    if t_max > FEASIBLE_B_T_MAX:
        raise SizeBoundExceeded(f"t_max {t_max} exceeds "
                                f"FEASIBLE_B_T_MAX = {FEASIBLE_B_T_MAX}")
    t, r = admissible_pairs(t_max)
    order = np.lexsort((r, t))
    return t[order].tolist(), r[order].tolist()


def _condition_tags_A(t: int, r: int, mu: int) -> list[str] | None:
    """Check conditions (i)-(vi) for the r >= 4 branch; None when violated."""
    tags = []
    if t < 3 or t % 4 == 0:
        return None
    tags.append("t>=3, 4 does not divide t")
    if mu < 2:
        return None
    tags.append("mu>=2")
    if 2 * r <= t * t + 1:
        if (t - 1) % r != 0:
            return None
        tags.append("r | t-1 (2r <= t^2+1)")
    if t % 2 == 1 and mu % 2 == 1:
        return None
    if t % 2 == 1:
        tags.append("mu even (t odd)")
    # divide r's odd part by its gcd with t-1 until that is 1: what is left
    # is the product of the odd primes of r that do not divide t-1
    odd = r >> ((r & -r).bit_length() - 1)
    while (g := gcd(odd, t - 1)) > 1:
        odd //= g
    if odd > 1:
        return None
    tags.append("odd primes of r divide t-1")
    return tags


class FamilyAEntry(NamedTuple):
    t: object  # int or QuadExt (the icosahedron entry)
    r: int
    params: CoverParams
    branch: str  # 'eq1', 'eq2+', 'eq2-', 'sporadic'
    conditions: tuple[str, ...] = ()


FEASIBLE_A_T_MAX = 10 ** 4


def feasible_A(t_max: int) -> list[FamilyAEntry]:
    """Even-fibre feasibility table up to t_max: _feasible_A_rows listed.

    Contains the sporadic (28, 4, 8); every r = 2 entry (both branches, with
    integral positive mu) for integer t <= t_max plus the t = sqrt(5) member;
    and every r >= 4 entry passing conditions (i)-(vi).  Both branches build
    their rows with _family_A_member once their own loop has tested mu, so
    no rejected (t, r, sign) raises.

    FEASIBLE_A_T_MAX = 10^4 gives 383 483 rows (2.8 s with Python 3.11 on
    a 2-vCPU AMD EPYC), and a larger t_max raises SizeBoundExceeded before
    any row is built.  `params feasible-a` writes each row as
    _feasible_A_rows makes it, so it holds no list of them.

    Open question: the r >= 4 rows take r = d/2 for every even divisor d of
    (t-1)^3 (t+2), odd r included, and 301 of them have odd r at t_max =
    100.  Family A is the even-fibre family, and a cover with odd r has no
    real nontrivial character, so those rows give no real line system at
    the real absolute bound; none of them sits at an endpoint of the
    complex bound either (frames._tau_endpoint).  Whether condition (vi)
    should demand an even r is a question for the paper's statement, and
    the table keeps those rows until it is settled.
    """
    return list(_feasible_A_rows(t_max))


def _feasible_A_rows(t_max: int) -> Iterator[FamilyAEntry]:
    """feasible_A's rows in order, each made when it is asked for.  t_max
    is checked here, so t_max < 2 and t_max > FEASIBLE_A_T_MAX raise before
    the iterator is returned."""
    if t_max < 2:
        raise ParameterError("t_max must be at least 2")
    if t_max > FEASIBLE_A_T_MAX:
        raise SizeBoundExceeded(f"t_max {t_max} exceeds "
                                f"FEASIBLE_A_T_MAX = {FEASIBLE_A_T_MAX}")

    def rows():
        yield FamilyAEntry(t=3, r=4, params=derive_params(28, 4, 8),
                           branch="sporadic", conditions=("fixed member",))
        # r = 2 branch, integer t: family_A's test that mu = poly/4 is a
        # positive integer, made here so that no rejected (t, sign) raises
        for t in range(2, t_max + 1):
            for sign, tag in ((+1, "eq2+"), (-1, "eq2-")):
                poly = _mu_poly(t, sign)
                if poly % 4 == 0 and poly > 0:
                    yield FamilyAEntry(t=t, r=2, branch=tag,
                                       params=_family_A_member(t, 2, sign))
        # r = 2, t = sqrt(5): both branches coincide at (6, 2, 2)
        s5 = QuadExt.sqrt(5)
        yield FamilyAEntry(t=s5, r=2, params=family_A(s5, 2, +1),
                           branch="eq2+", conditions=("t=sqrt(5)",))
        # r >= 4 branch under conditions (i)-(vi); mu integral means
        # 2r | poly, so r runs over even divisors of the branch polynomial.
        # Condition (i) rejects every r at a t with 4 | t, so that t is
        # skipped unfactored
        for t in range(3, t_max + 1):
            if t % 4 == 0:
                continue
            poly = _mu_poly(t, +1)
            for d in divisors(poly):
                if d % 2 != 0 or d // 2 < 4:
                    continue
                r = d // 2
                tags = _condition_tags_A(t, r, poly // d)
                if tags is not None:
                    yield FamilyAEntry(t, r, _family_A_member(t, r, +1),
                                       "eq1", tuple(tags))
    return rows()


def hoffman_bounds(fb: FamilyBParams) -> tuple[Fraction, Fraction]:
    """Exact clique and coclique bounds 1+(t^2-2)t and r(t^2-1)^2/(1+(t^2-2)t).

    Returned unfloored; callers decide floor semantics.
    """
    t, r = fb.t, fb.r
    clique = Fraction(1 + (t * t - 2) * t)
    coclique = Fraction(r * (t * t - 1) ** 2, 1 + (t * t - 2) * t)
    return clique, coclique
