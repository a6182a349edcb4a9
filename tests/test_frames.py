"""Characters, character matrices, the two-eigenvalue certificate, and ETF
certificates.  Characters are checked as homomorphisms on the closure_elements
set, with products composed in the test.

numpy.linalg.eigvalsh is the independent oracle for the multiplicities the
exact angle-layer certificate derives, on every nontrivial character of the
ten covers, and for the standalone Jacobi eigensolver.  The certificate must
fail on TS(3,1)'s angle table (e = 3, where C_a C_b and C_a C_b^T differ)
with one Hermitian pair moved, with one entry moved alone and under TS(4,1)'s
parameters, each time with its witness checked.  Line-system angles are
checked against the tight-frame identity alpha^2 = (n-d)/(d(n-1)) computed
from first principles, and the certified spectrum and line certificates
against seeded relabellings.  The exact absolute-bound endpoint of tau is
pinned on every feasibility-table row, with the families' closed forms as
oracle.
"""
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import (all_characters, character_matrix, closure_elements,
                      covering_group, cube, extract_lines, hexagon,
                      hermitian_jacobi, icosahedron, lines_from_cover,
                      params_of, quotient_cover, subgroups_of, thas_somma,
                      verify_etf)
from coverlab.exact import QuadExt
from coverlab.frames import (FrameError, LineSystem, SpectrumCertificateError,
                             _tau_endpoint, certify_two_eigenvalues)
from coverlab.groupops import is_cover_automorphism
from coverlab.params import CoverParams, feasible_A, feasible_B
from coverlab.perms import PermGroup, Permutation
from conftest import relabelled


def test_characters_of_cyclic_group(corpus):
    kernel, _ = covering_group(corpus["ts31"])
    chars = all_characters(kernel)
    assert len(chars) == 3
    assert chars[0].is_trivial
    assert all(c.is_faithful for c in chars[1:])
    # values are cube roots of unity
    for c in chars[1:]:
        for img in c.values:
            assert (3 * c.angle(img)).denominator == 1


def test_characters_of_elementary_abelian(corpus):
    kernel, _ = covering_group(corpus["ts41"])  # Z2 x Z2
    chars = all_characters(kernel)
    assert len(chars) == 4
    assert sum(1 for c in chars if c.is_trivial) == 1
    for c in chars[1:]:
        assert not c.is_faithful  # no faithful character of Z2 x Z2
        assert len(c.kernel_images()) == 2


def _random_abelian_group(rng: random.Random) -> PermGroup:
    """Disjoint cycles of lengths 2..6, generated by random products of
    their powers (which need not generate the whole product)."""
    while True:
        lengths = [rng.choice((2, 2, 3, 4, 5, 6)) for _ in range(rng.randint(1, 3))]
        if math.prod(lengths) <= 48:
            break
    degree = sum(lengths)
    cycles, start = [], 0
    for length in lengths:
        img = list(range(degree))
        for i in range(length):
            img[start + i] = start + (i + 1) % length
        cycles.append(Permutation(img))
        start += length
    gens = []
    for _ in range(rng.randint(1, len(lengths) + 1)):
        p = Permutation.identity(degree)
        for c in cycles:
            for _ in range(rng.randrange(6)):
                p = p * c
        gens.append(p)
    return PermGroup(gens, degree)


def _oracle_groups():
    """K of the ten corpus covers, Z4 x Z2, the trivial group and 40 seeded
    random abelian groups."""
    for g in (hexagon(), cube(), icosahedron(), thas_somma(3, 1),
              thas_somma(4, 1), thas_somma(5, 1), thas_somma(7, 1),
              thas_somma(8, 1), thas_somma(2, 2), thas_somma(3, 2)):
        yield covering_group(g)[0]
    yield PermGroup([Permutation([1, 2, 3, 0, 4, 5]),
                     Permutation([0, 1, 2, 3, 5, 4])])
    yield PermGroup([], 3)
    for seed in range(40):
        yield _random_abelian_group(random.Random(seed))


def test_characters_vs_closure_oracle():
    """|G| distinct homomorphisms G -> Q/Z, trivial first, checked on the
    closure_elements set with products composed here."""
    orders = []
    for grp in _oracle_groups():
        elements = closure_elements(grp.generators, grp.degree)
        orders.append(len(elements))
        chars = all_characters(grp)
        assert len(chars) == len(elements)
        assert [c.index for c in chars] == list(range(len(elements)))
        assert len({tuple(sorted(c.values.items())) for c in chars}) == len(chars)
        assert chars[0].is_trivial
        products = [(a, b, tuple(b[x] for x in a))
                    for a in elements for b in elements]
        for c in chars:
            assert set(c.values) == elements
            assert all((c.angle(ab) - c.angle(a) - c.angle(b)).denominator == 1
                       for a, b, ab in products)
    assert orders[:12] == [2, 2, 2, 3, 4, 5, 7, 8, 2, 3, 8, 1]
    assert max(orders) > 16


def test_hexagon_character_matrix(corpus):
    g = corpus["hexagon"]
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    s = character_matrix(g, chi, kernel=kernel)
    expect = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=complex)
    assert np.allclose(s.matrix, expect)
    assert s.eigenvalues == ((1.0, 2), (-2.0, 1))


def test_trivial_character_rejected(corpus):
    g = corpus["hexagon"]
    kernel, _ = covering_group(g)
    with pytest.raises(FrameError):
        character_matrix(g, all_characters(kernel)[0], kernel=kernel)


def test_supplied_kernel_must_fix_fibres(corpus):
    g = corpus["hexagon"]
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    swap = PermGroup([Permutation([0, 5, 4, 3, 2, 1])], 6)  # a reflection
    assert is_cover_automorphism(g, swap.generators[0])
    with pytest.raises(FrameError, match="fix every fibre"):
        character_matrix(g, chi, kernel=swap)


def test_supplied_kernel_must_be_the_covering_group(corpus):
    """A fibre-fixing group that is not K, here K's trivial subgroup on
    TS(3,1), is refused too, by its order."""
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    with pytest.raises(FrameError, match="not the covering group"):
        character_matrix(g, chi, kernel=PermGroup([], g.v))


def test_characters_never_recheck_the_kernel(monkeypatch):
    """Building S for every nontrivial character of TS(4,1), with K
    supplied and without, finds K once and never checks it again: no
    fixes_fibres sweep, and kernel_info once, when K is recorded.  Both
    are counted wherever a coverlab module binds them."""
    from coverlab import frames, groupops
    calls = {"fixes_fibres": 0, "kernel_info": 0}
    for module in (groupops, frames):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counting)
    g = thas_somma(4, 1)
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)[1:]
    assert len(chars) == 3
    for chi in chars:
        for supplied in (kernel, None):
            assert character_matrix(g, chi, kernel=supplied).n == g.n
    assert calls == {"fixes_fibres": 0, "kernel_info": 1}


def test_lines_from_cover_verifies_once(verify_calls):
    g = thas_somma(4, 1)
    lines = lines_from_cover(g)
    assert lines.certificates["tight"]
    assert verify_calls == [g]


def test_ts31_character_matrix_eigenvalues(corpus):
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    s = character_matrix(g, chi, kernel=kernel)
    assert s.eigenvalues == ((2.0, 6), (-4.0, 3))
    # oracle: numpy eigendecomposition of the same matrix
    evals = np.linalg.eigvalsh(s.matrix)
    assert np.allclose(sorted(evals), [-4] * 3 + [2] * 6, atol=1e-9)
    # multiplicities are m_theta/(r-1) and m_tau/(r-1)
    assert int(s.params.m_theta) // (s.params.r - 1) == 6
    assert int(s.params.m_tau) // (s.params.r - 1) == 3


def test_eigenvalue_sum_property(corpus):
    """Spec invariant: eigenvalues lie in {theta, tau}, multiplicities sum to n."""
    for name in ("hexagon", "cube", "icosahedron", "ts31", "ts41"):
        g = corpus[name]
        kernel, info = covering_group(g)
        for chi in all_characters(kernel)[1:]:
            s = character_matrix(g, chi, kernel=kernel)
            assert sum(m for _, m in s.eigenvalues) == g.n


def test_sic_from_ts31(corpus):
    lines = lines_from_cover(corpus["ts31"], char_index=1, side="tau")
    assert lines.dimension == 3 and lines.n == 9
    assert lines.common_angle ** 2 == pytest.approx(0.25, abs=1e-9)
    c = lines.certificates
    assert c["sic"] and c["equiangular"] and c["tight"]
    assert c["relative_bound_equality"]
    assert c["tightness_deviation"] <= 1e-9
    theta_side = lines_from_cover(corpus["ts31"], char_index=1, side="theta")
    assert theta_side.dimension == 6
    assert theta_side.common_angle ** 2 == pytest.approx(1 / 16, abs=1e-9)
    assert not theta_side.certificates["sic"]


def test_hexagon_real_absolute_bound(corpus):
    g = corpus["hexagon"]
    kernel, _ = covering_group(g)
    s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
    lines = extract_lines(s, "theta", tol=1e-12)
    assert lines.dimension == 2 and lines.n == 3
    assert abs(lines.common_angle - 0.5) <= 1e-12
    c = lines.certificates
    assert not c["sic"]  # 3 != 4
    assert c["real_absolute_bound_attained"]  # 3 = d(d+1)/2


def test_tight_angle_identity(corpus):
    """alpha^2 = (n-d)/(d(n-1)) for every produced system."""
    for name in ("hexagon", "cube", "icosahedron", "ts31", "ts41"):
        g = corpus[name]
        kernel, _ = covering_group(g)
        for chi in all_characters(kernel)[1:]:
            s = character_matrix(g, chi, kernel=kernel)
            for side in ("theta", "tau"):
                lines = extract_lines(s, side)
                n, d = lines.n, lines.dimension
                assert lines.common_angle ** 2 == pytest.approx(
                    (n - d) / (d * (n - 1)), abs=1e-10)


def test_character_choice_invariance(corpus):
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    produced = []
    for chi in chars[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        lines = extract_lines(s, "tau")
        evals = np.round(np.sort(np.linalg.eigvalsh(s.matrix)), 8)
        angles = np.round(np.sort(np.abs(
            lines.gram[~np.eye(9, dtype=bool)])), 8)
        produced.append((lines.dimension, round(lines.common_angle, 9),
                         tuple(evals), tuple(angles)))
    assert produced[0] == produced[1]


def test_quotient_compatibility(corpus):
    """Lines from a kernel-bearing character equal lines from the faithful
    character of the quotient cover, after base-vertex alignment."""
    g = corpus["ts41"]
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    chi = chars[1]
    keep = chi.kernel_images()
    from coverlab.perms import PermGroup, Permutation
    u = PermGroup([Permutation(img) for img in keep
                   if img != tuple(range(g.v))], g.v)
    assert u.order() == 2
    quot = quotient_cover(g, u)

    # align: the quotient's base vertices are the orbits of g's bases
    orbits = sorted(u.orbits(), key=lambda o: o[0])
    orbit_of = {}
    for i, o in enumerate(orbits):
        for x in o:
            orbit_of[x] = i
    bases_q = [orbit_of[f[0]] for f in g.fibres]

    s_full = character_matrix(g, chi, kernel=kernel)
    kernel_q, _ = covering_group(quot)
    match = None
    for chi_q in all_characters(kernel_q)[1:]:
        s_q = character_matrix(quot, chi_q, kernel=kernel_q,
                               base_vertices=bases_q)
        if np.allclose(s_q.matrix, s_full.matrix, atol=1e-12):
            match = chi_q
            break
    assert match is not None


def test_jacobi_against_numpy_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 9, 17):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        evals, vecs = hermitian_jacobi(h)
        oracle = np.linalg.eigvalsh(h)
        assert np.allclose(np.sort(evals), oracle, atol=1e-9)
        # unitarity and reconstruction
        assert np.allclose(vecs @ vecs.conj().T, np.eye(n), atol=1e-9)
        assert np.allclose(vecs.conj().T @ h @ vecs, np.diag(evals),
                           atol=1e-8)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(FrameError):
        hermitian_jacobi(np.array([[0, 1], [2, 0]], dtype=complex))


def test_random_gram_fails_equiangularity():
    rng = np.random.default_rng(1)
    vecs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    gram = vecs @ vecs.conj().T
    alpha = float(np.mean(np.abs(gram[~np.eye(5, dtype=bool)])))
    lines = LineSystem(dimension=3, gram=gram, common_angle=alpha, side="tau")
    report = verify_etf(lines, tol=1e-9)
    assert not report["equiangular"]
    assert report["equiangular_deviation"] > 1e-3


def test_tau_endpoint_reporting(corpus):
    for name, endpoint in (("ts31", "lower"), ("hexagon", "upper")):
        g = corpus[name]
        kernel, _ = covering_group(g)
        s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
        lines = extract_lines(s, "tau")
        assert lines.certificates["tau_extremal_endpoint"] == endpoint, name
    # line-count absolute bound: SIC side of the 27-vertex cover attains it
    sic = lines_from_cover(corpus["ts31"], side="tau")
    assert sic.certificates["absolute_bound_attained"]
    other = lines_from_cover(corpus["ts31"], side="theta")
    assert not other.certificates["absolute_bound_attained"]  # 9 < 36


def test_tau_endpoint_on_feasible_b():
    """Every non-special odd-fibre member has the paper's tau = -sqrt(sqrt(n)
    + 1): by the family's closed form sqrt(n) = t^2 - 1 and tau = -t.
    (9, 3, 3) has tau = -4 = -(3 - 1) sqrt(3 + 1), the lower endpoint."""
    rows = feasible_B(200)
    for fb in rows:
        p, t = fb.params, fb.t
        if fb.special:
            assert (p.n, p.r, p.mu, p.tau) == (9, 3, 3, -4)
            assert _tau_endpoint(p) == ("odd-r", "lower")
            continue
        assert p.n == (t * t - 1) ** 2 and p.tau == -t
        assert _tau_endpoint(p) == ("odd-r", "upper"), (t, fb.r)
    assert len(rows) == 246


def test_tau_endpoint_on_feasible_a():
    """Even-fibre rows, with 8n + 1 = (2t^2 - 3)^2 from n = (t^2-2)(t^2-1)/2:
    tau = -t = -sqrt((s + 3)/2) is the upper endpoint (eq2+ and eq1 with
    even r), tau = -t(t^2 - 3)/2 = -sqrt((n - 1)(s - 3))/2 the lower one
    (eq2-).  The sporadic (28, 4, 8) has tau = -9 = -sqrt(27 * 12)/2, lower.
    An odd r takes the complex bound, which no eq1 row meets."""
    seen = Counter()
    for e in feasible_A(100):
        p, t = e.params, e.t
        got = _tau_endpoint(p)
        seen[e.branch, p.r % 2, got] += 1
        if e.branch == "sporadic":
            assert (p.n, p.r, p.mu, p.tau) == (28, 4, 8, -9)
            assert got == ("even-r", "lower")
            continue
        assert 8 * p.n + 1 == (2 * t * t - 3) ** 2
        if e.branch == "eq2-":
            assert p.tau == -t * (t * t - 3) * Fraction(1, 2)
            assert got == ("even-r", "lower")
        else:
            assert p.tau == -t
            assert got == (("odd-r", None) if p.r % 2 else ("even-r", "upper"))
    assert seen == {("eq2+", 0, ("even-r", "upper")): 75,
                    ("eq2-", 0, ("even-r", "lower")): 73,
                    ("sporadic", 0, ("even-r", "lower")): 1,
                    ("eq1", 0, ("even-r", "upper")): 776,
                    ("eq1", 1, ("odd-r", None)): 301}


def test_tau_endpoint_is_exact_not_within_tol():
    """tau = -2 + 10^-12 with n = 9, r = 3 misses the upper endpoint -2,
    however loose tol is; a float rule at tol 1e-9 calls it "upper"."""
    tau = QuadExt(Fraction(1, 10 ** 12) - 2)
    p = CoverParams(9, 3, 3, 1, QuadExt(0), tau, QuadExt(0), QuadExt(0))
    lines = LineSystem(dimension=3, gram=np.eye(3, dtype=complex),
                       common_angle=0.0, side="tau")
    for tol in (1e-9, 1.0):
        report = verify_etf(lines, tol=tol, source_params=p)
        assert report["absolute_bound_kind"] == "odd-r"
        assert report["tau_extremal_endpoint"] is None
    exact = p._replace(tau=QuadExt(-2))
    assert verify_etf(lines, source_params=exact)[
        "tau_extremal_endpoint"] == "upper"


def test_line_system_json(corpus):
    lines = lines_from_cover(corpus["hexagon"], side="theta")
    blob = lines.to_json()
    assert blob["d"] == 2 and blob["n"] == 3
    assert blob["gram"][0][0] == {"re": 1.0, "im": 0.0}
    assert "tightness_deviation" in blob["certificates"]


def _ts31_signature(corpus):
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    return character_matrix(g, all_characters(kernel)[1], kernel=kernel)


def _certificate_error(angle, e, params) -> SpectrumCertificateError:
    with pytest.raises(SpectrumCertificateError) as info:
        certify_two_eigenvalues(angle, e, params)
    return info.value


def _layer_count(angle, e, i, j, c) -> int:
    """Entry (i, j) of sum over a + b = c of C_a C_b, counted directly."""
    return sum(1 for k in range(len(angle))
               if min(angle[i, k], angle[k, j]) >= 0
               and (angle[i, k] + angle[k, j]) % e == c)


def test_certificate_reads_int_and_quadext_records(corpus):
    """character_matrix certifies against params_of(g), derive_params'
    QuadExt spectrum; an int copy of the record, as the family tables
    build them, gives the same certificate, and an int m_theta that r - 1
    does not divide is refused."""
    sig = _ts31_signature(corpus)
    p = sig.params
    assert all(type(x) is QuadExt for x in p[4:])
    ints = p._replace(theta=int(p.theta), tau=int(p.tau),
                      m_theta=int(p.m_theta), m_tau=int(p.m_tau))
    cert = certify_two_eigenvalues(sig.angle, sig.e, ints)
    assert cert == certify_two_eigenvalues(sig.angle, sig.e, p)
    assert cert.eigenvalues == ((2.0, 6), (-4.0, 3))
    exc = _certificate_error(sig.angle, sig.e, ints._replace(m_theta=13))
    assert exc.witness == {"m_theta": Fraction(13, 2)}


def test_certificate_rejects_perturbed_matrix(corpus):
    """Move the pair (0, 1), (1, 0) to the next angle pair: S stays
    Hermitian, and the layer identity fails in row or column 0 or 1."""
    sig = _ts31_signature(corpus)
    p = sig.params
    assert sig.e == 3
    cert = certify_two_eigenvalues(sig.angle, sig.e, p)
    assert cert.eigenvalues == ((2.0, 6), (-4.0, 3))
    angle = sig.angle.copy()
    angle[0, 1] = (angle[0, 1] + 1) % 3
    angle[1, 0] = -angle[0, 1] % 3
    exc = _certificate_error(angle, 3, p)
    (i, j), c = exc.witness["entry"], exc.witness["power"]
    assert {i, j} & {0, 1}
    want = ((p.lam - p.mu) * (angle[i, j] == c) + p.mu * p.r / 3 * (i != j)
            + (p.n - 1) * (i == j and c == 0))
    assert exc.witness["got"] == _layer_count(angle, 3, i, j, c)
    assert exc.witness["want"] == want != exc.witness["got"]
    assert str(exc) == (f"layer identity fails at entry ({i}, {j}), power "
                        f"{c}: got {exc.witness['got']:g}, want {want:g}")


def test_certificate_rejects_non_hermitian_entry(corpus):
    """Move (2, 5) alone: S[2, 5] is no longer conj(S[5, 2])."""
    sig = _ts31_signature(corpus)
    angle = sig.angle.copy()
    angle[2, 5] = (angle[2, 5] + 1) % 3
    exc = _certificate_error(angle, 3, sig.params)
    assert exc.witness == {"entry": (2, 5)}
    assert "not Hermitian" in str(exc)


def test_certificate_rejects_wrong_eigenvalues(corpus):
    """TS(4,1)'s parameters on TS(3,1)'s table: the diagonal counts the
    n - 1 = 8 neighbours of each base, not 15."""
    sig = _ts31_signature(corpus)
    exc = _certificate_error(sig.angle, 3, params_of(corpus["ts41"]))
    assert exc.witness == {"entry": (0, 0), "power": 0, "got": 8, "want": 15}


def test_certificate_needs_two_layers(corpus):
    """With e = 1, J - I satisfies the identity but has eigenvalues n - 1
    and -1: the sum of the e-th roots of unity vanishes only for e >= 2."""
    sig = _ts31_signature(corpus)
    with pytest.raises(FrameError, match="e >= 2"):
        certify_two_eigenvalues(np.where(sig.angle < 0, -1, 0), 1, sig.params)


@pytest.mark.parametrize("name", ["hexagon", "cube", "icosahedron", "ts31",
                                  "ts41", "ts51", "ts71", "ts81", "ts22",
                                  "ts32"])
def test_certified_multiplicities_match_eigvalsh(corpus, name):
    g = corpus[name] if name in corpus else thas_somma(int(name[2]),
                                                       int(name[3]))
    kernel, _ = covering_group(g)
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        p = s.params
        evals = np.linalg.eigvalsh(s.matrix)
        counts = [int(np.sum(np.abs(evals - float(x)) <= 1e-8))
                  for x in (p.theta, p.tau)]
        from_params = [int(m * Fraction(1, p.r - 1))
                       for m in (p.m_theta, p.m_tau)]
        certified = [m for _, m in s.eigenvalues]
        assert certified == counts == from_params, (name, chi.index)


def _spectra_and_certificates(g):
    kernel, _ = covering_group(g)
    eigenvalues, certs = set(), []
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        eigenvalues.add(s.eigenvalues)
        certs.append(tuple(
            tuple(sorted((k, v) for k, v in
                         extract_lines(s, side).certificates.items()
                         if isinstance(v, bool)))
            for side in ("theta", "tau")))
    return eigenvalues, sorted(certs)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["icosahedron", "ts31", "ts41"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_invariant_under_relabelling(corpus, name, seed):
    g = corpus[name]
    assert (_spectra_and_certificates(relabelled(g, seed))
            == _spectra_and_certificates(g))
