"""Case-enumeration regressions against the expected finite sets."""
import time
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from coverlab import casecheck
from coverlab.casecheck import (all_cases, claim4_search,
                                linear_case_31, linear_case_parity_exclusion,
                                sp_case, sporadic_filter, twin_power_centers,
                                wreathed_congruence_case)
from coverlab.numtheory import SizeBoundExceeded, prime_sieve


def test_sp_case_standard():
    rep = sp_case(3, 6)
    assert rep.match and set(rep.solutions) == {(11, 4), (23, 5)}
    assert sp_case(3, 3).match and sp_case(3, 3).solutions == []
    rep = sp_case(3, 8)  # divisibility constraint kills d = 7, 8
    assert set(rep.solutions) == {(11, 4), (23, 5)}


def test_sp_case_swapped_variant_empty():
    rep = sp_case(3, 6, swap_powers=True)
    assert rep.match and rep.solutions == []


def test_sp_case_oracle():
    """Brute force over all t directly from the degree equation."""
    found = []
    for d in range(3, 7):
        for eps in (+1, -1):
            n0 = 2 ** (2 * d - 1) + eps * 2 ** (d - 1)
            for t in range(6, isqrt(n0) + 2):
                if t * t - 1 != n0:
                    continue
                # the splitting constraints of case 2.1
                x2, y2 = (t - 1), (t + 1)
                if x2 % 2 == 0 and (x2 // 2) % 2 == 1 \
                        and y2 % 2 ** (d - 2) == 0 \
                        and (y2 // 2 ** (d - 2)) % 2 == 1:
                    found.append((t, d))
    assert set(found) == {(11, 4), (23, 5)}


def test_linear_case_31():
    rep = linear_case_31(16)
    assert rep.match
    assert set(rep.solutions) == {(2, 6, 8, 7), (2, 8, 16, 5)}
    rep2 = linear_case_31(2)
    assert set(rep2.solutions) == {(2, 6, 8, 7), (2, 8, 16, 5)}
    assert rep2.match


def test_linear_case_31_rejects_q_max_past_pinned_range():
    with pytest.raises(ValueError, match="exceeds 16"):
        linear_case_31(17)


def test_linear_case_parity():
    rep = linear_case_parity_exclusion()
    assert rep.match and rep.solutions == []


def test_claim4():
    rep = claim4_search()
    assert rep.match
    got = dict(rep.solutions)
    assert got[11] == ((12, 13, 2),)
    assert got[20] == ()
    # the t = 10 near-miss is recorded with its reason
    assert any("t=10" in n and "2-3-smooth" in n for n in rep.notes)


def _twin_brute(t_max):
    """Both neighbours prime powers and t-1 not 3-smooth (an admissible r
    exists), with no factorization: prime powers are sieved primes raised
    to powers, 3-smooth numbers are enumerated as 2^a 3^b."""
    top = t_max + 1
    sieve = prime_sieve(top)
    powers, smooth = set(), set()
    for p in range(2, top + 1):
        q = p
        while sieve[p] and q <= top:
            powers.add(q)
            q *= p
    two = 1
    while two <= top:
        three = two
        while three <= top:
            smooth.add(three)
            three *= 3
        two *= 2
    return [t for t in range(2, t_max + 1)
            if t - 1 in powers and t + 1 in powers and t - 1 not in smooth]


def test_twin_power_centers_oracle():
    rep = twin_power_centers(20)
    assert rep.match
    assert rep.solutions == rep.expected == _twin_brute(20) == [6, 8, 12, 18]
    assert twin_power_centers(6).solutions == [6]
    rep = twin_power_centers(500)
    assert rep.match and rep.solutions == _twin_brute(500)
    assert not any(t % 2 for t in rep.solutions)


def test_twin_power_centers_expected_is_independent(monkeypatch):
    """A broken prime-power test changes the solutions, not the expected
    set, so the report stops matching."""
    monkeypatch.setattr(casecheck, "prime_power_decompose", lambda n: (n, 1))
    rep = twin_power_centers(20)
    assert rep.expected == [6, 8, 12, 18] and not rep.match


def test_sporadic_filter_all_empty():
    rep = sporadic_filter()
    assert rep.match and rep.solutions == []
    # candidate notes exist, e.g. for m = 12 the odd non-multiples of 3
    assert any("m=12" in n for n in rep.notes)
    assert not any("m=276, t=" in n and "not a prime power" not in n
                   for n in rep.notes)


def test_wreathed_congruence_sweep():
    rep = wreathed_congruence_case(1000)
    assert rep.match and rep.solutions == []


@pytest.mark.parametrize("t_sweep", [1000, 3000])
def test_wreathed_congruence_oracle(t_sweep):
    """A brute loop over odd t <= T and every r >= 5 with r | t-1 and
    gcd(r, 6) = 1, four congruences each, gives the same count and hits."""
    checked, hits = brute_wreathed((t, r) for t in range(3, t_sweep + 1, 2)
                                   for r in range(5, t)
                                   if (t - 1) % r == 0 and r % 2 and r % 3)
    rep = wreathed_congruence_case(t_sweep)
    assert rep.notes == [f"{checked} congruences checked"]
    assert rep.solutions == hits == []


def brute_wreathed(pairs):
    """The count and hits of the four congruences over the given (odd t, r),
    in the given order."""
    checked, hits = 0, []
    for t, r in pairs:
        for z1 in (1, 2):
            lam1 = z1 * (t * t - 2) - t + (t - 1) // r
            for mod, tag in (((t * t - 3) // 2, "half"), (t * t - 3, "full")):
                checked += 1
                if lam1 % mod in (0, 1):
                    hits.append((t, r, z1, tag))
    return checked, hits


def test_wreathed_congruence_planted_hits(monkeypatch):
    """The hit path and its order, on planted pairs: a pair (t, 1) with odd
    t has lambda1 = t^2 - 3 at z1 = 1, 0 mod both moduli, and 2(t^2 - 3) + 1
    at z1 = 2, 1 mod both, so it hits all four congruences; (3, 5) has
    lambda1 = 4 at z1 = 1, 1 mod 3, and hits once, after (3, 1).  Given out
    of order among admissible pairs, even t among them, the hits and the
    count match a brute loop over the same pairs in (t, r) order."""
    planted = [(29, 7), (11, 1), (3, 5), (12, 11), (9, 1), (21, 5), (3, 1),
               (15, 7), (6, 5), (7, 1), (11, 5)]
    t, r = (np.array(a, dtype=np.int64) for a in zip(*planted))
    monkeypatch.setattr(casecheck, "admissible_pairs",
                        lambda t_max: (t.copy(), r.copy()))
    checked, hits = brute_wreathed(tr for tr in sorted(planted) if tr[0] % 2)
    rep = wreathed_congruence_case(100)
    assert hits[3:5] == [(3, 1, 2, "full"), (3, 5, 1, "half")]
    assert [h[:2] for h in hits[5::4]] == [(7, 1), (9, 1), (11, 1)]
    assert len(hits) == 17 and checked == 36
    assert rep.solutions == hits
    assert rep.notes == [f"{checked} congruences checked"]
    assert not rep.match


def test_wreathed_congruence_cap(monkeypatch):
    """Past WREATHED_SWEEP_MAX the sweep raises before it enumerates a
    pair; at the cap every value it forms, below 2 t^2, fits in int64."""
    cap = casecheck.WREATHED_SWEEP_MAX
    assert 2 * cap * cap < 2 ** 63

    def no_pairs(t_max):
        raise AssertionError(f"admissible_pairs({t_max}) was called")

    monkeypatch.setattr(casecheck, "admissible_pairs", no_pairs)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SizeBoundExceeded,
                           match=f"t_sweep {cap + 1} exceeds "
                                 f"WREATHED_SWEEP_MAX = {cap}"):
            wreathed_congruence_case(cap + 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 1 << 20


def test_all_cases_match():
    reports = all_cases()
    assert reports and all(r.match for r in reports.values())


def test_case_report_json():
    rep = sp_case(3, 6)
    blob = rep.to_json()
    assert blob["match"] is True
    assert [11, 4] in blob["solutions"]
