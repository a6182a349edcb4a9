"""Exhaustive finite case enumerations behind the classification arguments.

Every operation sweeps a declared finite constraint system exactly (no
sampling) and packages the result as a CaseReport carrying both the found
solutions and the expected set, so a mismatch is machine-visible.  Derived
bound steps from the source arguments are re-proved by exhaustion over the
raw constraints rather than trusted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .numtheory import (SizeBoundExceeded, factorize, has_coprime6_divisor,
                        prime_power_decompose, prime_sieve, six_prime_part)
from .params import admissible_pairs


@dataclass
class CaseReport:
    case_id: str
    search_space: str
    solutions: list
    expected: list
    match: bool = False
    notes: list = field(default_factory=list)

    def finalize(self) -> "CaseReport":
        self.match = set(map(tuple_or_scalar, self.solutions)) == \
            set(map(tuple_or_scalar, self.expected))
        return self

    def to_json(self) -> dict:
        return {"case_id": self.case_id, "search_space": self.search_space,
                "solutions": [list(s) if isinstance(s, tuple) else s
                              for s in self.solutions],
                "expected": [list(s) if isinstance(s, tuple) else s
                             for s in self.expected],
                "match": self.match, "notes": self.notes}


def tuple_or_scalar(x):
    return tuple(x) if isinstance(x, (tuple, list)) else x


def sp_case(d_min: int = 3, d_max: int = 6, swap_powers: bool = False) -> CaseReport:
    """Splittings t-1 = 2x, t+1 = 2^{d-2} y with xy = 2^d +- 1.

    Searches integer t >= 6 with t^2 - 1 = 2^{d-1} (2^d + eps), the stated
    two-power split between t-1 and t+1, and 2^{d-3} | y -+ 1.  The variant
    swap_powers exchanges the roles of t-1 and t+1 (split t+1 = 2y,
    t-1 = 2^{d-2} x, with 2^{d-3} | x -+ 1) and is expected to be empty.
    """
    if not (3 <= d_min <= d_max <= 8):
        raise ValueError("need 3 <= d_min <= d_max <= 8")
    sols = []
    notes = []
    for d in range(d_min, d_max + 1):
        for eps in (+1, -1):
            target = 2 ** (d - 1) * (2 ** d + eps)
            t = isqrt(target + 1)
            if t * t != target + 1 or t < 6:
                continue
            # t odd: one factor of 2 in one of t -+ 1, 2^{d-2} in the other
            one, many = (t + 1, t - 1) if swap_powers else (t - 1, t + 1)
            if (factorize(one).get(2, 0) != 1
                    or factorize(many).get(2, 0) != d - 2):
                notes.append(f"d={d}, t={t}: two-power split fails")
                continue
            x, y = one // 2, many // 2 ** (d - 2)
            div = 2 ** max(d - 3, 0)
            if x * y == 2 ** d + eps and ((y - 1) % div == 0
                                          or (y + 1) % div == 0):
                sols.append((t, d))
    expected = [] if swap_powers else [s for s in [(11, 4), (23, 5)]
                                       if d_min <= s[1] <= d_max]
    label = "swapped" if swap_powers else "standard"
    rep = CaseReport(
        case_id=f"sp2d-{label}",
        search_space=f"d in [{d_min},{d_max}], eps in {{+1,-1}}, t >= 6 with "
                     f"t^2-1 = 2^(d-1)(2^d+eps)",
        solutions=sols, expected=expected, notes=notes)
    return rep.finalize()


def linear_case_31(q_max: int = 16) -> CaseReport:
    """Solutions of (t^2-1)(q-1) = q^d - 1 for 6 <= d <= 8, prime-power q.

    r is the divisor of t-1 coprime to 6.  The report carries two staged
    refinements as notes: the sharper estimate (t-1)(r-1)/r <= 2q-1 excludes
    every solution (the source argument's contradiction), and the terminal
    d = 7 claim (no admissible q < 4) is re-checked by the same sweep.
    The expected solutions are pinned for q <= 16, so a larger q_max raises.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > 16:
        raise ValueError(f"q_max = {q_max} exceeds 16, the range the "
                         "expected solutions are pinned for")
    sols = []
    notes = []
    for d in (6, 7, 8):
        for q in range(2, q_max + 1):
            if prime_power_decompose(q) is None:
                continue
            tt = (q ** d - 1) // (q - 1) + 1
            if (q ** d - 1) % (q - 1) != 0:
                continue
            t = isqrt(tt)
            if t * t != tt or t < 6:
                continue
            if not has_coprime6_divisor(t - 1):
                notes.append(f"d={d}, q={q}, t={t}: no admissible r")
                continue
            r = six_prime_part(t - 1)
            sols.append((q, d, t, r))

    survivors = [(q, d, t, r) for (q, d, t, r) in sols
                 if (t - 1) * (r - 1) <= (2 * q - 1) * r]
    notes.append(f"after estimate (t-1)(r-1)/r <= 2q-1: {survivors}")
    d7 = [(q, d, t, r) for (q, d, t, r) in sols if d == 7]
    notes.append(f"d=7 solutions (terminal claim, expected none): {d7}")

    rep = CaseReport(
        case_id="linear31",
        search_space=f"d in {{6,7,8}}, prime powers q <= {q_max}, "
                     f"(t^2-1)(q-1) = q^d-1, t >= 6, r = 6'-part of t-1",
        solutions=sols,
        expected=[(2, 6, 8, 7), (2, 8, 16, 5)],
        notes=notes)
    rep = rep.finalize()
    rep.match = rep.match and survivors == [] and d7 == []
    return rep


def linear_case_parity_exclusion() -> CaseReport:
    """Terminal parity claim for d = 6, q = 2, t = 8, r = 7.

    In that configuration gamma = -z1 q + 2(t - (t-1)/r + a1 + a2 (q-1))
    must equal l (q^{d-2}-1)/(q-1) = 15 l; gamma is even for every admissible
    (z1, a1, a2) while 15 l is odd for l = 1, so no assignment exists.
    """
    d, q, t, r = 6, 2, 8, 7
    hits = []
    target = (q ** (d - 2) - 1) // (q - 1)  # 15
    for z1 in (1, 2, 3, 4):
        for a1 in (0, 1):
            for a2 in (0, 1, 2):
                gamma = -z1 * q + 2 * (t - (t - 1) // r + a1 + a2 * (q - 1))
                if gamma == target:
                    hits.append((z1, a1, a2))
    rep = CaseReport(
        case_id="linear31-parity",
        search_space="z1 in 1..4, a1 in 0..1, a2 in 0..2 at "
                     "(d,q,t,r) = (6,2,8,7); gamma must hit 15",
        solutions=hits, expected=[])
    return rep.finalize()


def claim4_search(targets=(11, 20)) -> CaseReport:
    """Solve (t^2 - 1)/p^{l/2} = target with p prime, l even.

    Constraints carried along: p^{l/2} must divide t-1 or t+1 (doubled for
    p = 2 to absorb the shared factor), and t-1 must admit a divisor >= 2
    coprime to 6.  The ranges are finite because p^{l/2} | 2(t+1) forces
    t <= 2 target + 3.
    """
    sols = []
    notes = []
    for target in targets:
        found = []
        for t in range(6, 2 * target + 4):
            if (t * t - 1) % target != 0:
                continue
            s = (t * t - 1) // target
            pp = prime_power_decompose(s)
            if pp is None:
                notes.append(f"target {target}, t={t}: "
                             f"(t^2-1)/{target} = {s} is not a prime power")
                continue
            p, e = pp
            bound_factor = 2 if p == 2 else 1
            if (bound_factor * (t - 1)) % s != 0 and \
               (bound_factor * (t + 1)) % s != 0:
                notes.append(f"target {target}, t={t}: p^(l/2)={s} divides "
                             f"neither t-1 nor t+1")
                continue
            if not has_coprime6_divisor(t - 1):
                notes.append(f"target {target}, t={t}: no admissible r "
                             f"(t-1 = {t - 1} is 2-3-smooth)")
                continue
            found.append((t, p, 2 * e))
        sols.append((target, tuple(found)))

    # the p | 20 sub-branch of target 20: t-1 = 2*5^j with t+1 = 2^i needs
    # 5^j = 2^(i-1) - 1, i.e. a Mersenne number that is a power of five
    mersenne_vs_five = [(i, 2 ** (i - 1) - 1) for i in range(2, 30)
                        if set(factorize(2 ** (i - 1) - 1)) == {5}]
    notes.append("p|20 sub-branch: Mersenne numbers 2^(i-1)-1 that are "
                 f"powers of 5 with j >= 1: {mersenne_vs_five}")

    rep = CaseReport(
        case_id="claim4",
        search_space=f"targets {targets}, t in [6, 2*target+3], "
                     f"(t^2-1)/target = p^(l/2)",
        solutions=sols,
        expected=[(11, ((12, 13, 2),)), (20, ())],
        notes=notes)
    return rep.finalize()


def twin_power_centers(t_max: int) -> CaseReport:
    """Even t <= t_max with t-1 and t+1 both prime powers.

    The standing divisor condition (some r >= 2 with r | t-1 and
    gcd(6, r) = 1) is applied, which eliminates every odd t: odd t makes
    both t-1 and t+1 powers of two, hence t = 3, which has no admissible r.
    Annotated with (p1, s1, p2, s2) and the block-size pair.
    """
    if t_max < 6:
        raise ValueError("t_max must be >= 6")
    sols = []
    annotated = []
    for t in range(2, t_max + 1):
        lo = prime_power_decompose(t - 1)
        hi = prime_power_decompose(t + 1)
        if lo is None or hi is None:
            continue
        if not has_coprime6_divisor(t - 1):
            continue
        sols.append(t)
        annotated.append({"t": t, "p1^s1": lo, "p2^s2": hi,
                          "blocks": ((t - 1) ** 2, (t + 1) ** 2)})
    # expected from other code: prime powers as sieved primes raised to
    # powers, and the admissible-r condition as "t-1 is not 3-smooth"
    top = t_max + 1
    sieve = prime_sieve(top)
    powers = {p ** k for p in range(2, top + 1) if sieve[p]
              for k in range(1, top.bit_length() + 1) if p ** k <= top}
    smooth = {2 ** a * 3 ** b for a in range(top.bit_length())
              for b in range(top.bit_length())}
    expected = [t for t in range(2, t_max + 1)
                if t - 1 in powers and t + 1 in powers and t - 1 not in smooth]
    rep = CaseReport(
        case_id="twin-powers",
        search_space=f"t <= {t_max}, t-1 and t+1 prime powers, "
                     f"admissible r exists",
        solutions=sols, expected=expected,
        notes=[f"odd t present: {any(t % 2 for t in sols)}", annotated])
    rep = rep.finalize()
    rep.match = rep.match and not any(t % 2 for t in sols)
    return rep


SPORADIC_DEGREES = (11, 12, 22, 23, 24, 15, 28, 176, 276)


def sporadic_filter(t_max: int = 15) -> CaseReport:
    """For each sporadic degree m: t <= t_max with m | (t^2-1)^2 and
    (t^2-1)^2 / m a prime power.  Expected empty for every m."""
    sols = []
    notes = []
    for m in SPORADIC_DEGREES:
        hits = []
        for t in range(2, t_max + 1):
            n = (t * t - 1) ** 2
            if n % m != 0:
                continue
            quot = n // m
            pp = prime_power_decompose(quot)
            if pp is not None:
                hits.append((m, t, quot))
            else:
                notes.append(f"m={m}, t={t}: n/m = {quot} not a prime power")
        sols.extend(hits)
    rep = CaseReport(
        case_id="sporadic",
        search_space=f"m in {SPORADIC_DEGREES}, t <= {t_max}, "
                     f"m | (t^2-1)^2, (t^2-1)^2/m a prime power",
        solutions=sols, expected=[], notes=notes)
    return rep.finalize()


WREATHED_SWEEP_MAX = 10 ** 6
# the four congruences of one pair, in the order wreathed_congruence_case
# lists a pair's hits
_WREATHED_CONGRUENCES = ((1, "half"), (1, "full"), (2, "half"), (2, "full"))


def wreathed_congruence_case(t_sweep: int = 1000) -> CaseReport:
    """lambda1 = z1 (t^2-2) - t + (t-1)/r must avoid residues {0, 1}.

    For odd t (the relevant regime has t^2 - 2 odd), moduli (t^2-3)/2 and
    t^2-3 are both checked over every admissible r and z1 in {1, 2}; any hit
    is a solution, expected none.  The pairs come from admissible_pairs as
    int64 arrays, and a mask keeps the odd t (t = 1 + kr with k even, so
    t >= 11); the four congruences are tested as arrays, a residue being in
    {0, 1} when it is below 2, as both moduli are positive.  The hits are
    ordered by (t, r), and within a pair by (z1, modulus).

    The largest value formed is lambda1 at z1 = 2, below 2 t^2, so
    t_sweep <= WREATHED_SWEEP_MAX = 10^6 keeps it below 2^63 with room to
    spare; the cap is on memory, as the arrays peak at 128 MiB there.  A
    larger t_sweep raises SizeBoundExceeded before any array is allocated.
    """
    if t_sweep > WREATHED_SWEEP_MAX:
        raise SizeBoundExceeded(f"t_sweep {t_sweep} exceeds "
                                f"WREATHED_SWEEP_MAX = {WREATHED_SWEEP_MAX}")
    t, r = admissible_pairs(t_sweep)
    odd = t % 2 == 1
    t, r = t[odd], r[odd]
    t2 = t * t
    half_mod, full_mod = (t2 - 3) // 2, t2 - 3
    lam_1 = t2 - 2 - t + (t - 1) // r  # z1 = 1
    lam_2 = lam_1 + t2 - 2  # z1 = 2
    hit = np.stack((lam_1 % half_mod < 2, lam_1 % full_mod < 2,
                    lam_2 % half_mod < 2, lam_2 % full_mod < 2), axis=1)
    rows = np.flatnonzero(hit.any(axis=1))
    rows = rows[np.lexsort((r[rows], t[rows]))]
    hits = [(ti, ri, z1, mod)
            for i, ti, ri in zip(rows.tolist(), t[rows].tolist(),
                                 r[rows].tolist())
            for (z1, mod), h in zip(_WREATHED_CONGRUENCES, hit[i]) if h]
    rep = CaseReport(
        case_id="wreathed-congruence",
        search_space=f"odd t <= {t_sweep}, admissible r | t-1, z1 in {{1,2}}, "
                     f"moduli (t^2-3)/2 and t^2-3",
        solutions=hits, expected=[],
        notes=[f"{4 * t.size} congruences checked"])
    return rep.finalize()


def all_cases() -> dict[str, CaseReport]:
    """Every case enumeration at its default bounds, keyed by case id."""
    reports = [
        sp_case(3, 6, swap_powers=False),
        sp_case(3, 6, swap_powers=True),
        linear_case_31(),
        linear_case_parity_exclusion(),
        claim4_search(),
        twin_power_centers(20),
        sporadic_filter(),
        wreathed_congruence_case(),
    ]
    return {r.case_id: r for r in reports}
