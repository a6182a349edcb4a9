"""Character matrices, the two-eigenvalue certificate, and ETF certificates.

numpy.linalg.eigvalsh is the independent oracle for the multiplicities the
quadratic-identity certificate derives, and for the standalone Jacobi
eigensolver; the certificate must fail on perturbed matrices, on the wrong
{theta, tau} and on a matrix with three eigenvalues.  Line-system angles are
checked against the tight-frame identity alpha^2 = (n-d)/(d(n-1)) computed
from first principles, and the certified spectrum and line certificates
against seeded relabellings.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import (all_characters, character_matrix, covering_group, cube,
                      extract_lines, hexagon, hermitian_jacobi, icosahedron,
                      lines_from_cover, params_of, quotient_cover,
                      subgroups_of, thas_somma, verify_etf)
from coverlab.exact import QuadExt
from coverlab.frames import (FrameError, LineSystem, SpectrumCertificateError,
                             _abelian_basis, certify_two_eigenvalues)
from coverlab.groupops import is_cover_automorphism
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
            assert abs(c(img) ** 3 - 1) < 1e-12


def test_characters_of_elementary_abelian(corpus):
    kernel, _ = covering_group(corpus["ts41"])  # Z2 x Z2
    chars = all_characters(kernel)
    assert len(chars) == 4
    assert sum(1 for c in chars if c.is_trivial) == 1
    for c in chars[1:]:
        assert not c.is_faithful  # no faithful character of Z2 x Z2
        assert len(c.kernel_images()) == 2


def test_abelian_basis_z4_z2():
    from coverlab.perms import Permutation, PermGroup
    a = Permutation([1, 2, 3, 0, 4, 5])
    b = Permutation([0, 1, 2, 3, 5, 4])
    grp = PermGroup([a, b])
    basis = _abelian_basis(list(grp.elements()))
    orders = sorted(g.order() for g in basis)
    assert orders == [2, 4]


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
            assert s.max_eigen_residual <= 1e-10
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


def _certificate_error(s, theta, tau) -> SpectrumCertificateError:
    with pytest.raises(SpectrumCertificateError) as info:
        certify_two_eigenvalues(s, theta, tau)
    exc = info.value
    assert exc.residual > 1e-10
    assert f"residual {exc.residual:.3g}" in str(exc)
    return exc


def test_certificate_rejects_perturbed_matrix(corpus):
    sig = _ts31_signature(corpus)
    p = sig.params
    cert = certify_two_eigenvalues(sig.matrix, p.theta, p.tau)
    assert cert.eigenvalues == ((2.0, 6), (-4.0, 3))
    s = sig.matrix.copy()
    s[0, 1] += 1e-6
    s[1, 0] += 1e-6  # still Hermitian
    exc = _certificate_error(s, p.theta, p.tau)
    assert exc.m_theta == 6  # the multiplicity identity alone cannot tell


def test_certificate_rejects_wrong_eigenvalues(corpus):
    sig = _ts31_signature(corpus)
    other = params_of(corpus["ts41"])
    exc = _certificate_error(sig.matrix, other.theta, other.tau)
    assert not exc.m_theta.is_integer  # 9*5/8


def test_certificate_rejects_three_eigenvalues():
    """Traceless, Hermitian, non-scalar, with m_theta an integer in 1..n-1:
    only the quadratic identity can see the third eigenvalue."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    q, _ = np.linalg.qr(a)
    theta, tau = QuadExt(2), QuadExt(-4)
    good = q @ np.diag([2.0] * 6 + [-4.0] * 3) @ q.conj().T
    assert certify_two_eigenvalues(good, theta, tau).eigenvalues == \
        ((2.0, 6), (-4.0, 3))
    s = q @ np.diag([2.0] * 4 + [-4.0] * 2 + [0.0] * 3) @ q.conj().T
    assert len(set(np.round(np.linalg.eigvalsh(s), 8))) == 3
    exc = _certificate_error(s, theta, tau)
    assert exc.m_theta == 6


@pytest.mark.parametrize("name", ["hexagon", "cube", "icosahedron", "ts31",
                                  "ts41", "ts22", "ts32"])
def test_certified_multiplicities_match_eigvalsh(corpus, name):
    extra = {"ts22": (2, 2), "ts32": (3, 2)}
    g = corpus[name] if name in corpus else thas_somma(*extra[name])
    kernel, _ = covering_group(g)
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        p = s.params
        evals = np.linalg.eigvalsh(s.matrix)
        counts = [int(np.sum(np.abs(evals - float(x)) <= 1e-8))
                  for x in (p.theta, p.tau)]
        from_params = [int(m / (p.r - 1)) for m in (p.m_theta, p.m_tau)]
        certified = [m for _, m in s.eigenvalues]
        assert certified == counts == from_params, (name, chi.index)
        assert s.trace_deviation <= 1e-10


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
