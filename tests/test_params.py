"""Parameter calculus against independent spectral oracles.

Expected eigenvalues and multiplicities are recomputed here from explicit
adjacency matrices (numpy eigenvalues, integer-rounded), never copied from
the implementation under test.
"""
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import (cube, derive_params, family_A, family_B, feasible_A,
                      feasible_B, hexagon, hoffman_bounds, icosahedron,
                      thas_somma)
from coverlab.exact import QuadExt
from coverlab.params import (CoverParams, FamilyAEntry, FamilyBParams,
                             ParameterError, admissible_r)


def spectrum_oracle(g):
    """Eigenvalue -> multiplicity from dense numerics, half-integer rounded."""
    evals = np.linalg.eigvalsh(g.adjacency_matrix().astype(float))
    out = {}
    for x in evals:
        key = round(x, 6)
        out[key] = out.get(key, 0) + 1
    return out


def test_derive_9_3_3_against_thas_somma_spectrum():
    spec = spectrum_oracle(thas_somma(3, 1))
    p = derive_params(9, 3, 3)
    assert p.lam == 1
    assert p.theta == 2 and p.tau == -4
    # oracle: the 27-vertex graph has eigenvalues 8, 2, -1, -4
    assert spec[8.0] == 1 and spec[-1.0] == 8
    assert spec[2.0] == 12 and spec[-4.0] == 6
    assert int(p.m_theta) == 12 and int(p.m_tau) == 6


def test_derive_3_2_1_against_hexagon_spectrum():
    spec = spectrum_oracle(hexagon())
    p = derive_params(3, 2, 1)
    assert p.lam == 0 and p.theta == 1 and p.tau == -2
    assert spec[1.0] == 2 and spec[-2.0] == 1
    assert int(p.m_theta) == 2 and int(p.m_tau) == 1


def test_derive_6_2_2_against_icosahedron_spectrum():
    spec = spectrum_oracle(icosahedron())
    p = derive_params(6, 2, 2)
    assert p.lam == 2
    assert p.theta == QuadExt.sqrt(5) and p.tau == -QuadExt.sqrt(5)
    r5 = round(5 ** 0.5, 6)
    assert spec[r5] == 3 and spec[-r5] == 3
    assert int(p.m_theta) == 3 and int(p.m_tau) == 3


def test_derive_4_2_2_against_cube_spectrum():
    spec = spectrum_oracle(cube())
    p = derive_params(4, 2, 2)
    assert (p.theta, p.tau) == (1, -3)
    assert int(p.m_theta) == spec[1.0] == 3
    assert int(p.m_tau) == spec[-3.0] == 1


def test_derive_rejections():
    with pytest.raises(ParameterError):
        derive_params(2, 2, 1)  # n too small
    with pytest.raises(ParameterError):
        derive_params(9, 1, 3)  # r too small
    with pytest.raises(ParameterError):
        derive_params(9, 3, 0)  # mu too small
    with pytest.raises(ParameterError):
        derive_params(5, 3, 4)  # lambda negative


def test_derived_spectrum_identities():
    """The closed-form spectrum solves its defining equations exactly on
    every admissible triple with n < 40 and r <= 6, irrational ones too."""
    irrational = 0
    for n in range(3, 40):
        for r in range(2, 7):
            for mu in range(1, (n - 2) // (r - 1) + 1):
                p = derive_params(n, r, mu)
                assert p.theta + p.tau == p.lam - p.mu
                assert p.theta * p.tau == -(n - 1)
                assert p.theta > p.tau
                assert p.m_theta + p.m_tau == (r - 1) * n
                assert p.theta * p.m_theta + p.tau * p.m_tau == 0
                irrational += not p.theta.is_rational
    assert irrational > 1000


def test_non_integral_multiplicities_flagged():
    # (8, 2, 2): lambda = 4, surd spectrum, m_theta = 4 - sqrt(2) not integral
    p = derive_params(8, 2, 2)
    assert not p.multiplicities_integral
    assert p.m_theta + p.m_tau == (p.r - 1) * p.n


@pytest.mark.parametrize("m_tau,integral", [
    (21, True), (0, False), (-21, False),
    (QuadExt(21), True), (QuadExt(Fraction(41, 2)), False),
], ids=["int", "int-zero", "int-negative", "quadext", "quadext-fraction"])
def test_multiplicities_integral_on_int_and_quadext_records(m_tau, integral):
    """A hand-built (28, 4, 8) record with m_tau of either type: integral
    and positive, or not."""
    p = CoverParams(28, 4, 8, 2, 3, -9, 63, m_tau)
    assert p.multiplicities_integral is integral


def test_family_records_store_ints_and_derive_params_quadext():
    spectra = [family_B(6, 5).params, family_A(5, 2, +1), family_A(5, 2, -1),
               family_A(7, 6, +1)]
    for p in spectra:
        assert all(type(x) is int for x in p[4:]), p
        assert p.multiplicities_integral
    surd = [derive_params(p.n, p.r, p.mu) for p in spectra]
    surd += [family_B(2, 3).params, family_A(QuadExt.sqrt(5), 2)]
    for p in surd:
        assert all(type(x) is QuadExt for x in p[4:]), p


def test_family_b_values():
    fb = family_B(6, 5)
    assert (fb.params.n, fb.params.r, fb.params.mu) == (1225, 5, 205)
    fb = family_B(12, 11)
    # direct substitution: n = (12^2 - 1)^2 = 143^2
    assert (fb.params.n, fb.params.r, fb.params.mu) == (20449, 11, 1705)
    assert fb.params.mu == 121 * 155 // 11
    assert fb.params.lam >= 0
    special = family_B(2, 3)
    assert special.special
    assert (special.params.n, special.params.r, special.params.mu) == (9, 3, 3)
    with pytest.raises(ParameterError):
        family_B(12, 5)  # 5 does not divide 11


def test_feasible_b_table():
    def oracle(t_max):
        found = {(2, 3)}
        for t in range(2, t_max + 1):
            for r in range(2, t):
                if (t - 1) % r == 0 and gcd(6, r) == 1:
                    found.add((t, r))
        return found

    got = {(fb.t, fb.r) for fb in feasible_B(12)}
    assert got == oracle(12) == {(2, 3), (6, 5), (8, 7), (11, 5), (12, 11)}
    assert {(fb.t, fb.r) for fb in feasible_B(5)} == {(2, 3)}
    assert {(fb.t, fb.r) for fb in feasible_B(2)} == {(2, 3)}


def test_admissible_r_matches_range_scan():
    for t in range(2, 2001):
        want = [r for r in range(2, t) if (t - 1) % r == 0 and gcd(6, r) == 1]
        assert admissible_r(t) == want, t


def test_feasible_b_rows_in_t_r_order():
    """The special (9, 3, 3) row first, then the (t, r) pairs ascending."""
    rows = feasible_B(300)
    keys = [(fb.t, fb.r) for fb in rows]
    assert rows[0].special and not any(fb.special for fb in rows[1:])
    assert keys[1:] == [(t, r) for t in range(2, 301)
                        for r in range(2, t)
                        if (t - 1) % r == 0 and gcd(6, r) == 1]


def test_feasible_b_integrality_and_trace_identity():
    for fb in feasible_B(100):
        p = fb.params
        assert p.multiplicities_integral
        assert p.theta * p.tau == -(p.n - 1)
        assert p.theta + p.tau == p.lam - p.mu
        # zero trace: k + m_theta theta + (n-1)(-1) + m_tau tau = 0
        total = (QuadExt(p.n - 1) + p.m_theta * p.theta
                 + QuadExt(-(p.n - 1)) + p.m_tau * p.tau)
        assert total == 0
        if not fb.special:
            t, r = fb.t, fb.r
            lhs = (t * t * (t * t - 2)
                   + (t * t - 1) * (r - 1) * t * (t * t - 2)
                   - ((t * t - 1) ** 2 - 1)
                   - (t * t - 2) * (t * t - 1) * (r - 1) * t)
            assert lhs == 0


def test_family_b_closed_forms_match_derive_params():
    """family_B writes the spectrum from closed forms; derive_params'
    exact arithmetic is the oracle for every member with t <= 1000."""
    for fb in feasible_B(1000):
        p = fb.params
        oracle = derive_params(p.n, p.r, p.mu)
        assert p == oracle and p.to_json() == oracle.to_json()


@given(st.sampled_from([5, 7, 11, 13, 25, 35, 49, 77, 143]),
       st.integers(min_value=200, max_value=10**4))
@settings(max_examples=100, deadline=None)
def test_family_b_closed_forms_large_t(r, k):
    t = 1 + r * k
    n, mu = (t * t - 1) ** 2, (t - 1) ** 2 * (t * t + t - 1) // r
    p = family_B(t, r).params
    assert (p.n, p.r, p.mu) == (n, r, mu)
    oracle = derive_params(n, r, mu)
    assert p == oracle and p.to_json() == oracle.to_json()


def test_feasible_b_large_sweep_parity():
    for fb in feasible_B(10_000):
        if not fb.special:
            assert fb.r % 2 == 1 and fb.r % 3 != 0


def test_family_a_named_members():
    assert (family_A(3, 2, +1).n, family_A(3, 2, +1).mu) == (28, 10)
    assert (family_A(2, 2, +1).n, family_A(2, 2, +1).mu) == (3, 1)
    assert (family_A(5, 2, +1).n, family_A(5, 2, +1).mu) == (276, 112)
    s5 = QuadExt.sqrt(5)
    assert (family_A(s5, 2, +1).n, family_A(s5, 2, +1).mu) == (6, 2)
    # companion branch gives the distance-2 parameter sets
    assert family_A(3, 2, -1).mu == 16
    assert family_A(5, 2, -1).mu == 162
    with pytest.raises(ParameterError):
        family_A(4, 2, +1)  # mu = 40.5
    with pytest.raises(ParameterError):
        family_A(3, 3, +1)  # r must be 2 or >= 4
    with pytest.raises(ParameterError):
        family_A(3, 4, -1)  # minus branch only at r = 2


def _family_A_oracle(t: int, r: int, sign: int):
    """n and mu from the defining polynomials, then derive_params."""
    poly = (t - 1) ** 3 * (t + 2) if sign == +1 else (t + 1) ** 3 * (t - 2)
    mu = Fraction(poly, 2 * r)
    if mu.denominator != 1 or mu <= 0:
        raise ParameterError(f"mu = {mu} is not a positive integer")
    return derive_params((t * t - 2) * (t * t - 1) // 2, r, int(mu))


def _assert_family_A_matches_oracle(t, r, sign):
    try:
        want = _family_A_oracle(t, r, sign)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            family_A(t, r, sign)
        assert str(got.value) == str(exc)
        return
    p = family_A(t, r, sign)
    assert p == want and p.to_json() == want.to_json(), (t, r, sign)


def test_family_a_closed_forms_match_derive_params():
    """family_A writes integer-t members from closed forms; derive_params'
    exact arithmetic is the oracle for every row of feasible_A(100) and on
    a grid of (t, r, sign), raising included."""
    for e in feasible_A(100):
        oracle = derive_params(e.params.n, e.r, e.params.mu)
        assert e.params == oracle and e.params.to_json() == oracle.to_json()
    for t in range(2, 201):
        _assert_family_A_matches_oracle(t, 2, +1)
        _assert_family_A_matches_oracle(t, 2, -1)
        if t >= 3:
            for r in range(4, 61):
                _assert_family_A_matches_oracle(t, r, +1)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_family_a_closed_forms_large_t(data):
    """t up to 10^4, mostly with r | t - 1 so that mu is integral."""
    r = data.draw(st.sampled_from([2, 4, 5, 6, 8, 10, 16, 25, 50, 64, 200]))
    t = data.draw(st.one_of(
        st.integers(3, 10**4),
        st.builds(lambda k: 1 + r * k, st.integers(1, 10**4 // r))))
    sign = data.draw(st.sampled_from([+1, -1])) if r == 2 else +1
    _assert_family_A_matches_oracle(max(t, 3), r, sign)


def test_feasible_a_contents():
    entries = feasible_A(5)
    keyed = {(str(e.t), e.r, e.params.n, e.params.mu) for e in entries}
    assert ("3", 2, 28, 10) in keyed
    assert ("sqrt(5)", 2, 6, 2) in keyed
    assert ("5", 2, 276, 112) in keyed
    assert ("2", 2, 3, 1) in keyed
    assert any(e.branch == "sporadic"
               and (e.params.n, e.params.r, e.params.mu) == (28, 4, 8)
               for e in entries)
    # r >= 4 at t = 3 is empty: conditions (iv)/(vi) kill every divisor
    assert not any(e.branch == "eq1" and e.t == 3 for e in entries)


def test_feasible_a_condition_filter_oracle():
    """Brute-force re-derivation of the r >= 4 branch for t <= 8."""
    def oracle():
        out = set()
        for t in range(3, 9):
            if t % 4 == 0:
                continue
            poly = (t - 1) ** 3 * (t + 2)
            for r in range(4, poly // 2 + 1):
                if poly % (2 * r) != 0:
                    continue
                mu = poly // (2 * r)
                if mu < 2:
                    continue
                if 2 * r <= t * t + 1 and (t - 1) % r != 0:
                    continue
                if t % 2 == 1 and mu % 2 == 1:
                    continue
                odd = r
                while odd % 2 == 0:
                    odd //= 2
                ok = True
                p = 3
                while p <= odd:
                    if odd % p == 0:
                        if (t - 1) % p != 0:
                            ok = False
                            break
                        while odd % p == 0:
                            odd //= p
                    p += 2
                if ok:
                    out.add((t, r))
        return out

    got = {(e.t, e.r) for e in feasible_A(8) if e.branch == "eq1"}
    assert got == oracle()


def test_hoffman_bounds():
    clique, coclique = hoffman_bounds(family_B(2, 3))
    assert clique == 5 and coclique == Fraction(27, 5)
    clique, coclique = hoffman_bounds(family_B(6, 5))
    assert clique == 205 and coclique == Fraction(6125, 205) == Fraction(1225, 41)
    # clique bound equals r mu / (t-1) on the t-parametrised family
    for fb in feasible_B(60):
        if fb.special:
            continue
        clique, _ = hoffman_bounds(fb)
        assert clique == Fraction(fb.r * fb.params.mu, fb.t - 1)


def test_cover_params_json():
    p = derive_params(6, 2, 2)
    d = p.to_json()
    assert d["theta"] == {"a": 0, "b": 1, "D": 5}
    assert d["m_theta"] == 3 and d["v"] == 12


@pytest.mark.parametrize("make,field", [
    (lambda: derive_params(28, 4, 8), "mu"),
    (lambda: family_B(6, 5), "special"),
    (lambda: feasible_A(3)[0], "branch"),
], ids=["cover_params", "family_b", "family_a_entry"])
def test_records_are_immutable_and_hashable(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert record == make() and hash(record) == hash(make())


def test_record_defaults():
    p = derive_params(9, 3, 3)
    assert FamilyBParams(2, 3, p).special is False
    assert family_B(6, 5).special is False
    assert FamilyAEntry(3, 2, p, "eq2+").conditions == ()


@pytest.mark.parametrize("triple,v,k,integral,blob", [
    ((28, 4, 8), 112, 27, True,
     {"n": 28, "r": 4, "mu": 8, "lambda": 2, "theta": {"a": 3, "b": 0, "D": 1},
      "tau": {"a": -9, "b": 0, "D": 1}, "m_theta": 63, "m_tau": 21,
      "v": 112}),
    ((6, 2, 2), 12, 5, True,
     {"n": 6, "r": 2, "mu": 2, "lambda": 2, "theta": {"a": 0, "b": 1, "D": 5},
      "tau": {"a": 0, "b": -1, "D": 5}, "m_theta": 3, "m_tau": 3, "v": 12}),
])
def test_cover_params_properties(triple, v, k, integral, blob):
    """(28, 4, 8): x^2 + 6x - 27 = (x - 3)(x + 9), m_theta = 9 * 3 * 28 / 12;
    the icosahedron: x^2 - 5, m_theta = m_tau = 6 / 2."""
    p = derive_params(*triple)
    assert (p.v, p.k, p.multiplicities_integral) == (v, k, integral)
    assert p.to_json() == blob
