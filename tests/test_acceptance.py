"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time budgets are pinned here, not configurable.
"""
import time

import numpy as np
import pytest

from coverlab import (all_characters, arc_orbit_count, automorphism_group,
                      character_matrix, covering_group, cube, extract_lines,
                      feasible_B, fibre_action, hexagon, icosahedron,
                      involution_audit, quotient_cover, subgroups_of,
                      thas_somma, verify_cover)
from coverlab.casecheck import (claim4_search, linear_case_31, sp_case,
                                sporadic_filter)
from coverlab.exact import QuadExt
from coverlab.numtheory import (gcd_qpow, lifting_identity_check,
                                nagell_ljunggren_search,
                                zsigmondy_corollary_solve)

PRIMES_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_known_examples():
    expected = {
        "hexagon": (hexagon, (3, 2, 1)),
        "icosahedron": (icosahedron, (6, 2, 2)),
        "cube": (cube, (4, 2, 2)),
        "thas_somma(3,1)": (lambda: thas_somma(3, 1), (9, 3, 3)),
        "thas_somma(4,1)": (lambda: thas_somma(4, 1), (16, 4, 4)),
    }
    details = []
    ok = True
    for name, (builder, want) in expected.items():
        g = builder()
        t0 = time.perf_counter()
        rep = verify_cover(g)
        dt = time.perf_counter() - t0
        good = (rep.is_cover and not rep.failures
                and (rep.n, rep.r, rep.mu) == want and dt < 1.0)
        ok = ok and good
        details.append(f"{name}->({rep.n},{rep.r},{rep.mu}) in {dt:.3f}s")
    from coverlab import params_of
    tau = params_of(icosahedron()).tau
    exact = tau == -QuadExt.sqrt(5)
    ok = ok and exact
    _verdict(1, ok, "; ".join(details) + f"; icosahedron tau exact: {exact}")


def test_criterion_2_quotient_closure():
    g = thas_somma(4, 1)
    kernel, info = covering_group(g)
    order2 = [s for s in subgroups_of(kernel) if s.order() == 2]
    ok = info["order"] == 4 and len(order2) == 3
    results = []
    for sub in order2:
        rep = verify_cover(quotient_cover(g, sub))
        results.append((rep.n, rep.r, rep.mu))
        ok = ok and rep.is_cover and (rep.n, rep.r, rep.mu) == (16, 2, 8)
    _verdict(2, ok, f"three order-2 quotients of (16,4,4): {results}")


def test_criterion_3_arc_orbits_vs_rank():
    covers = {"hexagon": hexagon(), "cube": cube(),
              "icosahedron": icosahedron(), "TS(3,1)": thas_somma(3, 1),
              "TS(4,1)": thas_somma(4, 1)}
    ok = True
    details = []
    for name, g in covers.items():
        aut = automorphism_group(g)
        fa = fibre_action(g, aut)
        arcs = arc_orbit_count(g, fa)
        good = (arcs["rank_identity_applicable"]
                and arcs["arc_orbits"] == fa.rank - 1)
        ok = ok and good
        details.append(f"{name}: arcs={arcs['arc_orbits']}, rank={fa.rank}")
    _verdict(3, ok, "; ".join(details))


def test_criterion_4_sic_reproduction():
    t0 = time.perf_counter()
    g = thas_somma(3, 1)
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    s = character_matrix(g, chi, kernel=kernel)
    lines = extract_lines(s, "tau")
    dt = time.perf_counter() - t0
    gram = lines.gram
    off = gram[~np.eye(9, dtype=bool)]
    angle_dev = float(np.max(np.abs(np.abs(off) ** 2 - 0.25)))
    tight_dev = float(np.max(np.abs(gram @ gram - 3.0 * gram)))
    p = s.params
    dims = (p.n - int(p.m_theta) // (p.r - 1),
            p.n - int(p.m_tau) // (p.r - 1))
    ok = (lines.dimension == 3 and lines.n == 9
          and angle_dev <= 1e-9 and tight_dev <= 1e-9
          and lines.certificates["sic"] and dims == (3, 6) and dt < 1.0)
    _verdict(4, ok, f"9 lines in C^3, | <vi,vj> |^2 dev {angle_dev:.2e}, "
                    f"tightness dev {tight_dev:.2e}, dims {dims}, {dt:.3f}s")


def test_criterion_5_real_absolute_bound():
    g = hexagon()
    kernel, _ = covering_group(g)
    s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
    lines = extract_lines(s, "theta", tol=1e-12)
    alpha_dev = abs(lines.common_angle - 0.5)
    ok = (lines.dimension == 2 and lines.n == 3
          and 2 * lines.n == lines.dimension * (lines.dimension + 1)
          and alpha_dev <= 1e-12
          and lines.certificates["real_absolute_bound_attained"])
    _verdict(5, ok, f"d=2, n=3=d(d+1)/2, alpha dev {alpha_dev:.2e}")


def test_criterion_6_feasibility_table():
    t0 = time.perf_counter()
    table = feasible_B(100)
    dt = time.perf_counter() - t0
    from math import gcd
    want = {(2, 3)} | {(t, r) for t in range(2, 101) for r in range(2, t)
                       if (t - 1) % r == 0 and gcd(6, r) == 1}
    got = {(fb.t, fb.r) for fb in table}
    by_key = {(fb.t, fb.r): fb.params for fb in table}
    spot1 = by_key[(6, 5)]
    spot2 = by_key[(12, 11)]
    integral = all(fb.params.multiplicities_integral for fb in table)
    ok = (got == want
          and (spot1.n, spot1.r, spot1.mu) == (1225, 5, 205)
          # paper formula: n = (12^2-1)^2 = 20449 (spec's 14641 fails
          # its own lambda >= 0 invariant; see decisions ledger)
          and (spot2.n, spot2.r, spot2.mu) == (20449, 11, 1705)
          and integral and dt < 1.0)
    _verdict(6, ok, f"{len(table)} rows, spot (6,5)->(1225,5,205), "
                    f"(12,11)->(20449,11,1705), integral mults, {dt:.3f}s")


def test_criterion_7_case_regressions():
    t0 = time.perf_counter()
    checks = []
    rep = sp_case(3, 6)
    checks.append(("sp2d", rep.match
                   and set(rep.solutions) == {(11, 4), (23, 5)}))
    rep = linear_case_31()
    checks.append(("linear31", rep.match
                   and set(rep.solutions) == {(2, 6, 8, 7), (2, 8, 16, 5)}))
    rep = claim4_search()
    got = dict(rep.solutions)
    checks.append(("claim4", rep.match and got[11] == ((12, 13, 2),)
                   and got[20] == ()))
    nl = nagell_ljunggren_search(200, 20)
    checks.append(("nagell-ljunggren",
                   sorted(nl) == [(3, 5, 11), (7, 4, 20)]))
    zs = zsigmondy_corollary_solve(10**6)
    checks.append(("zsigmondy", bool(zs) and all(
        s.case in ("nine", "fermat", "mersenne") for s in zs)))
    rep = sporadic_filter()
    checks.append(("sporadic", rep.match and rep.solutions == []))
    dt = time.perf_counter() - t0
    ok = all(x for _, x in checks) and dt < 60.0
    _verdict(7, ok, ", ".join(f"{n}={'ok' if x else 'FAIL'}"
                              for n, x in checks) + f"; {dt:.1f}s")


def test_criterion_8_property_suites():
    # exhaustive lifting and gcd identity sweeps
    lift_bad = sum(
        1 for q in range(2, 51) for e in (1, -1) for m in range(1, 31)
        for p in PRIMES_50
        if (chk := lifting_identity_check(q, e, m, p)).applicable
        and not chk.equal)
    gcd_bad = sum(
        1 for q in range(2, 21) for k in range(1, 41) for m in range(1, 41)
        if not gcd_qpow(q, k, m).equal)

    # single-edge mutation always breaks the hexagon and the cube
    mutations_ok = True
    for g in (hexagon(), cube()):
        for u in range(g.v):
            for w in range(u + 1, g.v):
                if verify_cover(g.toggled(u, w)).is_cover:
                    mutations_ok = False

    # involution identities over every involution of every corpus cover
    universal = {"size-lf", "regular-degree-l-1", "alpha3", "alpha1+alpha2"}
    involutions_ok = True
    n_checked = 0
    for g in (hexagon(), cube(), icosahedron(), thas_somma(3, 1),
              thas_somma(4, 1)):
        aut = automorphism_group(g)
        for p in aut.elements(limit=30_000):
            if p.order() != 2:
                continue
            n_checked += 1
            for item in involution_audit(g, p):
                if item.item in universal and item.status != "pass":
                    involutions_ok = False

    ok = (lift_bad == 0 and gcd_bad == 0 and mutations_ok
          and involutions_ok and n_checked > 0)
    _verdict(8, ok, f"lifting cex={lift_bad}, gcd cex={gcd_bad}, "
                    f"mutations break verify: {mutations_ok}, "
                    f"{n_checked} involutions audited: {involutions_ok}")
