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
from typing import NamedTuple

from .exact import QuadExt, is_integral, quad_json, rational_json
from .numtheory import divisors, prime_powers, six_prime_part


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

    The spectrum is the closed forms tau = -t, theta = t(t^2-2), m_theta =
    (t^2-1)(r-1), m_tau = (t^2-2) m_theta.  The pair (t, r) = (2, 3) is the
    genuine exception with (n, r, mu) = (9, 3, 3); it does not satisfy the
    t-parametrisation (which would give mu = 5/3) and is returned tagged as
    special.
    """
    if t < 2:
        raise ParameterError(f"t must be at least 2, got {t}")
    if r < 2:
        raise ParameterError(f"r must be at least 2, got {r}")
    if (t, r) == (2, 3):
        return FamilyBParams(t=2, r=3, params=derive_params(9, 3, 3), special=True)
    if (t - 1) % r != 0:
        raise ParameterError(f"r = {r} does not divide t-1 = {t - 1}")
    n = (t * t - 1) ** 2
    mu = (t - 1) ** 2 * (t * t + t - 1) // r
    m_theta = (t * t - 1) * (r - 1)
    p = CoverParams(n, r, mu, n - (r - 1) * mu - 2, t * (t * t - 2), -t,
                    m_theta, (t * t - 2) * m_theta)
    return FamilyBParams(t=t, r=r, params=p)


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
    n = (t * t - 2) * (t * t - 1) // 2  # t^2-2, t^2-1 are consecutive: even
    if sign == +1:
        poly = (t - 1) ** 3 * (t + 2)
    else:
        poly = (t + 1) ** 3 * (t - 2)
    if poly % (2 * r) or poly <= 0:
        raise ParameterError(
            f"mu = {Fraction(poly, 2 * r)} is not a positive integer")
    mu = poly // (2 * r)
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


def admissible_r(t: int) -> list[int]:
    """The r >= 2 with r | t-1 and gcd(6, r) = 1, ascending: the divisors
    >= 2 of the 6'-part of t-1 >= 1."""
    return divisors(six_prime_part(t - 1))[1:]


def feasible_B(t_max: int) -> list[FamilyBParams]:
    """All odd-fibre family members with t <= t_max, in (t, r) order.

    Entries are the pairs (t, r) with r in admissible_r(t), plus the special
    (9, 3, 3) member listed first (as t = 2, which has no admissible r).
    """
    if t_max < 2:
        raise ParameterError("t_max must be at least 2")
    out = [family_B(2, 3)]
    for t in range(2, t_max + 1):
        for r in admissible_r(t):
            out.append(family_B(t, r))
    return out


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
    if any(p > 2 and (t - 1) % p for p, _, _ in prime_powers(r)):
        return None
    tags.append("odd primes of r divide t-1")
    return tags


class FamilyAEntry(NamedTuple):
    t: object  # int or QuadExt (the icosahedron entry)
    r: int
    params: CoverParams
    branch: str  # 'eq1', 'eq2+', 'eq2-', 'sporadic'
    conditions: tuple[str, ...] = ()


def feasible_A(t_max: int) -> list[FamilyAEntry]:
    """Even-fibre feasibility table up to t_max.

    Contains the sporadic (28, 4, 8); every r = 2 entry (both branches, with
    integral positive mu) for integer t <= t_max plus the t = sqrt(5) member;
    and every r >= 4 entry passing conditions (i)-(vi).

    Open question: the r >= 4 rows take r = d/2 for every even divisor d of
    (t-1)^3 (t+2), odd r included, and 301 of them have odd r at t_max =
    100.  Family A is the even-fibre family, and a cover with odd r has no
    real nontrivial character, so those rows give no real line system at
    the real absolute bound; none of them sits at an endpoint of the
    complex bound either (frames._tau_endpoint).  Whether condition (vi)
    should demand an even r is a question for the paper's statement, and
    the table keeps those rows until it is settled.
    """
    if t_max < 2:
        raise ParameterError("t_max must be at least 2")
    out = [FamilyAEntry(t=3, r=4, params=derive_params(28, 4, 8),
                        branch="sporadic", conditions=("fixed member",))]

    # r = 2 branch, integer t
    for t in range(2, t_max + 1):
        for sign, tag in ((+1, "eq2+"), (-1, "eq2-")):
            try:
                p = family_A(t, 2, sign)
            except ParameterError:
                continue
            out.append(FamilyAEntry(t=t, r=2, params=p, branch=tag))
    # r = 2, t = sqrt(5): both branches coincide at (6, 2, 2)
    s5 = QuadExt.sqrt(5)
    out.append(FamilyAEntry(t=s5, r=2, params=family_A(s5, 2, +1),
                            branch="eq2+", conditions=("t=sqrt(5)",)))

    # r >= 4 branch under conditions (i)-(vi); mu integral means 2r | poly,
    # so r runs over even divisors of the branch polynomial
    for t in range(3, t_max + 1):
        poly = (t - 1) ** 3 * (t + 2)
        for d in divisors(poly):
            if d % 2 != 0 or d // 2 < 4:
                continue
            r = d // 2
            mu = poly // d
            tags = _condition_tags_A(t, r, mu)
            if tags is None:
                continue
            try:
                p = family_A(t, r, +1)
            except ParameterError:
                continue
            out.append(FamilyAEntry(t=t, r=r, params=p, branch="eq1",
                                    conditions=tuple(tags)))
    return out


def hoffman_bounds(fb: FamilyBParams) -> tuple[Fraction, Fraction]:
    """Exact clique and coclique bounds 1+(t^2-2)t and r(t^2-1)^2/(1+(t^2-2)t).

    Returned unfloored; callers decide floor semantics.
    """
    t, r = fb.t, fb.r
    clique = Fraction(1 + (t * t - 2) * t)
    coclique = Fraction(r * (t * t - 1) ** 2, 1 + (t * t - 2) * t)
    return clique, coclique
