"""Case-enumeration regressions against the expected finite sets."""
from math import isqrt

import pytest

from coverlab.casecheck import (all_cases, claim4_search,
                                linear_case_31, linear_case_parity_exclusion,
                                sp_case, sporadic_filter, twin_power_centers,
                                wreathed_congruence_case)
from coverlab.numtheory import has_coprime6_divisor, prime_power_decompose


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


def test_twin_power_centers_oracle():
    """Independent brute force: both neighbours prime powers, admissible r."""
    def brute(t_max):
        out = []
        for t in range(2, t_max + 1):
            if prime_power_decompose(t - 1) and prime_power_decompose(t + 1) \
                    and has_coprime6_divisor(t - 1):
                out.append(t)
        return out

    rep = twin_power_centers(20)
    assert rep.match
    assert rep.solutions == brute(20) == [6, 8, 12, 18]
    assert twin_power_centers(6).solutions == [6]
    assert not any(t % 2 for t in twin_power_centers(500).solutions)


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


def test_all_cases_match():
    reports = all_cases()
    assert reports and all(r.match for r in reports.values())


def test_case_report_json():
    rep = sp_case(3, 6)
    blob = rep.to_json()
    assert blob["match"] is True
    assert [11, 4] in blob["solutions"]
