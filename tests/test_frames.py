"""Characters, character matrices, the two-eigenvalue certificate, and ETF
certificates.  Characters are checked as homomorphisms on the closure_elements
set, with products composed in the test.

numpy.linalg.eigvalsh is the independent oracle for the multiplicities the
exact angle-layer certificate derives, on every nontrivial character of the
ten covers, and for the standalone Jacobi eigensolver.  The certificate must
fail on TS(3,1)'s angle table (e = 3, where C_a C_b and C_a C_b^T differ)
with one Hermitian pair moved, with one entry moved alone, with one pair
blanked and under TS(4,1)'s parameters, each time with its witness checked.
Line systems are exact; a float Gram rebuilt from their angles is the
oracle for their certificates on every etf-corpus cover, and the angle
1/|other| is checked against the tight-frame identity alpha^2 =
(n-d)/(d(n-1)) computed from first principles.  The certified spectrum and
line certificates are checked against seeded relabellings.  The exact
absolute-bound endpoint of tau is pinned on every feasibility-table row,
with the families' closed forms as oracle.
"""
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import (all_characters, character_matrix,
                      cover_from_voltages, covering_group, cube,
                      extract_lines, hexagon,
                      hermitian_jacobi, icosahedron, lines_from_cover,
                      params_of, quotient_cover, subgroups_of, thas_somma)
from coverlab import frames
from coverlab.exact import QuadExt
from coverlab.frames import (FrameError, SpectrumCertificateError,
                             _tau_endpoint, certify_two_eigenvalues)
from coverlab.graphcore import SizeBoundExceeded, verify_cover
from coverlab.groupops import is_cover_automorphism, kernel_images
from coverlab.params import CoverParams, feasible_A, feasible_B
from coverlab.perms import PermGroup, Permutation
from conftest import (closure_elements, gram_of, kernel_positions,
                      named_cover, orbit_numbers, relabelled, signature_of)


def _kernel(chi) -> list[tuple]:
    """The elements where chi is 1, read off its exact values."""
    return sorted(img for img, q in chi.values.items() if q == 0)


def test_characters_of_cyclic_group(corpus):
    kernel, _ = covering_group(corpus["ts31"])
    chars = all_characters(kernel)
    assert len(chars) == 3
    assert chars[0].is_trivial
    assert all(len(_kernel(c)) == 1 for c in chars[1:])  # all faithful
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
        # no faithful character of Z2 x Z2: each kernel has order 2
        assert len(_kernel(c)) == 2


def fraction_characters(kernel: PermGroup) -> list[dict]:
    """Every character of an abelian group as a dict of Fraction angles,
    by the extension all_characters ran before it moved to integer angles:
    chi(h g^e) = chi(h) + e (chi(g^m) + j)/m mod 1 for j = 0..m-1, then
    sorted by the angles over the elements in image order, trivial first."""
    elements = [Permutation.identity(kernel.degree)]
    chars = [{elements[0].img: Fraction(0)}]
    for g in kernel.generators:
        if g.img in chars[0]:
            continue
        power, m = g, 1
        while power.img not in chars[0]:
            power, m = power * g, m + 1
        layers = [elements]
        for _ in range(m - 1):
            layers.append([x * g for x in layers[-1]])
        chars = [{x.img: (chi[h.img] + e * (chi[power.img] + j) / m) % 1
                  for e, layer in enumerate(layers)
                  for h, x in zip(elements, layer)}
                 for chi in chars for j in range(m)]
        elements = [x for layer in layers for x in layer]
    chars.sort(key=lambda vals: sorted((img, q) for img, q in vals.items()))
    chars.sort(key=lambda vals: all(q == 0 for q in vals.values()),
               reverse=True)
    return chars


def _fraction_oracle_groups():
    """K of the ten etf corpus covers, each under three seeded
    relabellings, then Z3 and Z2 x Z2 on four points."""
    for name in ETF_CORPUS:
        g = thas_somma(int(name[2]), int(name[3])) if name[:2] == "ts" \
            else {"hexagon": hexagon, "cube": cube,
                  "icosahedron": icosahedron}[name]()
        for seed in (11, 12, 13):
            yield covering_group(relabelled(g, seed))[0]
    yield PermGroup([Permutation([1, 2, 0])])
    yield PermGroup([Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])


def test_characters_match_fraction_extension():
    """The integer-angle extension gives the characters the Fraction
    extension gives, value for value and in the same order, and each
    integer angle t is the Fraction t/|G|."""
    orders = []
    for grp in _fraction_oracle_groups():
        want = fraction_characters(grp)
        got = all_characters(grp)
        orders.append(len(got))
        assert [list(c.values.items()) for c in got] == [list(w.items())
                                                         for w in want]
        assert [c.index for c in got] == list(range(len(want)))
        for c in got:
            assert c.modulus == len(want)
            assert c.values == {img: Fraction(t, c.modulus)
                                for img, t in c.turns.items()}
    assert orders == [2] * 9 + [3] * 3 + [2] * 3 + [4] * 3 + [5] * 3 \
        + [7] * 3 + [3] * 3 + [8] * 3 + [3, 4]


def test_characters_refuse_a_non_abelian_group():
    """S3, and D4 given by generators whose first two commute, so that the
    pair that does not is met only at the third: FrameError either way."""
    s3 = PermGroup([Permutation([1, 0, 2]), Permutation([1, 2, 0])])
    d4 = PermGroup([Permutation([2, 3, 0, 1]), Permutation([1, 0, 3, 2]),
                    Permutation([1, 2, 3, 0])])
    for grp in (s3, d4):
        gens = grp.generators
        assert any((a * b).img != (b * a).img for a in gens for b in gens)
        with pytest.raises(FrameError, match="must be abelian"):
            all_characters(grp)


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
    assert np.allclose(signature_of(s), expect)
    assert s.eigenvalues == ((1, 2), (-2, 1))


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


def test_character_of_another_group_is_refused(corpus):
    """A character of a relabelled copy's K is no character of g's K:
    FrameError names it, with no KeyError on K's first element."""
    g = corpus["ts31"]
    chi = all_characters(covering_group(relabelled(g, 1))[0])[1]
    with pytest.raises(FrameError, match="not a character of g's covering"):
        character_matrix(g, chi)


def test_characters_never_recheck_the_kernel(monkeypatch):
    """Building S for every nontrivial character of TS(4,1), with K
    supplied and without, finds K once and never checks it again:
    kernel_info runs once, when K is recorded, counted wherever a coverlab
    module binds it."""
    from coverlab import frames, groupops
    calls = {"kernel_info": 0}
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
    assert calls == {"kernel_info": 1}


def test_lines_from_cover_verifies_once(verify_calls):
    g = thas_somma(4, 1)
    lines = lines_from_cover(g)
    assert lines.certificates["tight"]
    assert verify_calls == [g]


def test_lines_from_cover_sifts_no_kernel_element(monkeypatch):
    """lines_from_cover reads the K that covering_group records and does
    not hand it back to character_matrix to be checked against itself, so
    no element is sifted for membership on TS(3,1), TS(4,1) or TS(8,1)."""
    contains = PermGroup.__contains__
    calls = []

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(PermGroup, "__contains__", counting)
    for q in (3, 4, 8):
        assert lines_from_cover(thas_somma(q, 1)).certificates["tight"]
    assert calls == []


def test_ts31_character_matrix_eigenvalues(corpus):
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    chi = all_characters(kernel)[1]
    s = character_matrix(g, chi, kernel=kernel)
    assert s.eigenvalues == ((2, 6), (-4, 3))
    # oracle: numpy eigendecomposition of the same matrix
    evals = np.linalg.eigvalsh(signature_of(s))
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
    assert lines.other == 2  # |<v_i, v_j>|^2 = 1/4
    c = lines.certificates
    assert c["sic"] and c["equiangular"] and c["tight"]
    assert c["relative_bound_equality"]
    theta_side = lines_from_cover(corpus["ts31"], char_index=1, side="theta")
    assert theta_side.dimension == 6
    assert theta_side.other == -4  # |<v_i, v_j>|^2 = 1/16
    assert not theta_side.certificates["sic"]


def test_hexagon_real_absolute_bound(corpus):
    g = corpus["hexagon"]
    kernel, _ = covering_group(g)
    s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
    lines = extract_lines(s, "theta")
    assert lines.dimension == 2 and lines.n == 3
    assert lines.e == 2 and lines.other == -2  # alpha = 1/2
    c = lines.certificates
    assert c["real_gram"]
    assert not c["sic"]  # 3 != 4
    assert c["real_absolute_bound_attained"]  # 3 = d(d+1)/2


def test_tight_angle_identity(corpus):
    """alpha^2 = 1/other^2 = (n-d)/(d(n-1)) for every produced system."""
    for name in ("hexagon", "cube", "icosahedron", "ts31", "ts41"):
        g = corpus[name]
        kernel, _ = covering_group(g)
        for chi in all_characters(kernel)[1:]:
            s = character_matrix(g, chi, kernel=kernel)
            for side in ("theta", "tau"):
                lines = extract_lines(s, side)
                n, d = lines.n, lines.dimension
                assert lines.other * lines.other * (n - d) == d * (n - 1)


def test_character_choice_invariance(corpus):
    g = corpus["ts31"]
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    produced = []
    for chi in chars[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        lines = extract_lines(s, "tau")
        evals = np.round(np.sort(np.linalg.eigvalsh(signature_of(s))), 8)
        angles = np.round(np.sort(np.abs(
            gram_of(lines)[~np.eye(9, dtype=bool)])), 8)
        produced.append((lines.dimension, lines.other, tuple(evals),
                         tuple(angles)))
    assert produced[0] == produced[1]


def test_quotient_compatibility(corpus):
    """Lines from a kernel-bearing character equal lines from the faithful
    character of the quotient cover.  No alignment is needed: the quotient
    numbers the U-orbits by least element, in order of least point, so the
    orbit of each fibre's minimum is the minimum of its quotient fibre."""
    g = corpus["ts41"]
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    chi = chars[1]
    keep = _kernel(chi)
    from coverlab.perms import PermGroup, Permutation
    u = PermGroup([Permutation(img) for img in keep
                   if img != tuple(range(g.v))], g.v)
    assert u.order() == 2
    quot = quotient_cover(g, u)

    # the quotient's base vertices are the orbits of g's bases
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
        s_q = character_matrix(quot, chi_q, kernel=kernel_q)
        assert list(s_q.base_vertices) == bases_q
        if np.allclose(signature_of(s_q), signature_of(s_full), atol=1e-12):
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
    """tau = -2 + 10^-12 with n = 9, r = 3 misses the upper endpoint -2; a
    float rule at tolerance 1e-9 would call it "upper"."""
    tau = QuadExt(Fraction(1, 10 ** 12) - 2)
    p = CoverParams(9, 3, 3, 1, QuadExt(0), tau, QuadExt(0), QuadExt(0))
    assert _tau_endpoint(p) == ("odd-r", None)
    assert _tau_endpoint(p._replace(tau=QuadExt(-2))) == ("odd-r", "upper")


def test_line_system_json(corpus):
    """The exact payload: plain ints and the QuadExt form, which one json
    dumps with no default writes, and bools and strings as certificates."""
    lines = lines_from_cover(corpus["hexagon"], side="theta")
    blob = json.loads(json.dumps(lines.to_json()))
    assert blob["d"] == 2 and blob["n"] == 3 and blob["e"] == 2
    assert blob["angles"] == [[-1, 0, 1], [0, -1, 0], [1, 0, -1]]
    assert blob["other"] == {"a": -2, "b": 0, "D": 1}
    assert all(type(v) in (bool, str) for v in blob["certificates"].values())
    assert set(blob) == {"d", "n", "side", "e", "angles", "other",
                         "certificates"}


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
    assert cert == ((2, 6), (-4, 3))
    exc = _certificate_error(sig.angle, sig.e, ints._replace(m_theta=13))
    assert exc.witness == {"m_theta": Fraction(13, 2)}


def test_certificate_rejects_perturbed_matrix(corpus):
    """Move the pair (0, 1), (1, 0) to the next angle pair: S stays
    Hermitian, and the layer identity fails in row or column 0 or 1."""
    sig = _ts31_signature(corpus)
    p = sig.params
    assert sig.e == 3
    cert = certify_two_eigenvalues(sig.angle, sig.e, p)
    assert cert == ((2, 6), (-4, 3))
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


def test_certificate_rejects_zero_off_diagonal_entry(corpus):
    """Blank the pair (0, 1), (1, 0): S stays Hermitian with zero diagonal,
    but two of its lines would be orthogonal, not equiangular."""
    sig = _ts31_signature(corpus)
    angle = sig.angle.copy()
    angle[0, 1] = angle[1, 0] = -1
    exc = _certificate_error(angle, 3, sig.params)
    assert exc.witness == {"entry": (0, 1)}
    assert str(exc) == "S has a zero off-diagonal entry at (0, 1)"


def test_certificate_rejects_wrong_eigenvalues(corpus):
    """TS(4,1)'s parameters on TS(3,1)'s table: the diagonal counts the
    n - 1 = 8 neighbours of each base, not 15."""
    sig = _ts31_signature(corpus)
    exc = _certificate_error(sig.angle, 3, params_of(corpus["ts41"]))
    assert exc.witness == {"entry": (0, 0), "power": 0, "got": 8, "want": 15}


def test_certificate_raises_past_float32_bound(corpus, monkeypatch):
    """The layer product's partial sums reach n - 1 = 8 on TS(3,1); from
    FLOAT32_EXACT on float32 could round them, so the certificate raises
    SizeBoundExceeded instead of certifying."""
    sig = _ts31_signature(corpus)
    monkeypatch.setattr(frames, "FLOAT32_EXACT", 9)
    assert certify_two_eigenvalues(sig.angle, 3, sig.params) == sig.eigenvalues
    monkeypatch.setattr(frames, "FLOAT32_EXACT", 8)
    with pytest.raises(SizeBoundExceeded, match="8 >= 8, beyond exact "
                                                "float32"):
        certify_two_eigenvalues(sig.angle, 3, sig.params)


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
        evals = np.linalg.eigvalsh(signature_of(s))
        counts = [int(np.sum(np.abs(evals - float(x)) <= 1e-8))
                  for x in (p.theta, p.tau)]
        from_params = [int(m * Fraction(1, p.r - 1))
                       for m in (p.m_theta, p.m_tau)]
        certified = [m for _, m in s.eigenvalues]
        assert certified == counts == from_params, (name, chi.index)


ETF_CORPUS = ["hexagon", "cube", "icosahedron", "ts31", "ts22", "ts41",
              "ts51", "ts71", "ts32", "ts81"]


@pytest.mark.parametrize("name", ETF_CORPUS)
def test_exact_certificates_match_float_gram(corpus, name):
    """On every nontrivial character and both sides, the Gram matrix rebuilt
    in floats from the exact angles, e and other is tight, G^2 = (n/d) G,
    equiangular at 1/|other|, and real exactly when real_gram says so.  The
    relative bound holds except on the hexagon's and the cube's tau sides,
    where d = 1, the lines coincide and alpha = 1."""
    g = corpus[name] if name in corpus else thas_somma(int(name[2]),
                                                       int(name[3]))
    kernel, _ = covering_group(g)
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        for side in ("theta", "tau"):
            lines = extract_lines(s, side)
            c, n, d = lines.certificates, lines.n, lines.dimension
            gram = gram_of(lines)
            off = np.abs(gram[~np.eye(n, dtype=bool)])
            assert np.max(np.abs(gram @ gram - n / d * gram)) <= 1e-9
            assert np.max(np.abs(off - 1 / abs(float(lines.other)))) <= 1e-9
            assert c["real_gram"] is bool(np.max(np.abs(gram.imag)) <= 1e-9)
            assert c["equiangular"] is c["tight"] is True
            one_dimensional = name in ("hexagon", "cube") and side == "tau"
            assert (d == 1) is one_dimensional, (name, side)
            assert c["relative_bound_equality"] is not one_dimensional


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ETF_CORPUS)
def test_character_angles_are_a_voltage_cover_at_the_labels(name, seed):
    """The CGSZ correspondence at the labels.  With U = ker chi and where[x]
    the k in K with k(b) = x, b the least label of x's fibre, the map
    x -> (fibre(x), -e chi(where[x]) mod e) is constant on U-orbits and is
    an isomorphism, from g when |U| = 1 and from quotient_cover(g, U)
    otherwise, onto the voltage cover over Z_e of the angle table with a
    zero diagonal.  That cover verifies as an (n, e, mu r/e)-cover."""
    g = named_cover(name, seed)
    kernel, _ = covering_group(g)
    images = kernel_images(g)
    where, _ = kernel_positions(g, images)
    rows = [tuple(img) for img in images.tolist()]
    p = params_of(g)
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi)
        e = s.e
        z_e = (np.arange(e)[:, None] + np.arange(e)) % e
        volt = cover_from_voltages(np.maximum(s.angle, 0), z_e)
        rep = verify_cover(volt)
        assert rep.is_cover and (rep.n, rep.r, rep.mu) == (
            p.n, e, p.mu * p.r // e), (name, chi.index)
        label = [g.fibre_of[x] * e + int(-e * chi.values[rows[where[x]]]) % e
                 for x in range(g.v)]
        keep = [img for img in rows if chi.values[img] == 0]
        if len(keep) == 1:
            source, vertex = g, range(g.v)
        else:
            sub = PermGroup([Permutation(img) for img in keep[1:]], g.v)
            source = quotient_cover(g, sub)
            vertex = orbit_numbers(keep, g.v)
        phi = np.empty(source.v, dtype=int)
        for x in range(g.v):
            phi[vertex[x]] = label[x]
        for x in range(g.v):  # the label is constant on U-orbits
            assert phi[vertex[x]] == label[x]
        assert sorted(phi.tolist()) == list(range(volt.v))
        assert np.array_equal(volt.adjacency_matrix()[np.ix_(phi, phi)],
                              source.adjacency_matrix()), (name, chi.index)


def _spectra_and_certificates(g):
    kernel, _ = covering_group(g)
    eigenvalues, certs = set(), []
    for chi in all_characters(kernel)[1:]:
        s = character_matrix(g, chi, kernel=kernel)
        eigenvalues.add(s.eigenvalues)
        certs.append(json.dumps([extract_lines(s, side).certificates
                                 for side in ("theta", "tau")],
                                sort_keys=True))
    return eigenvalues, sorted(certs)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["icosahedron", "ts31", "ts41"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_invariant_under_relabelling(corpus, name, seed):
    g = corpus[name]
    assert (_spectra_and_certificates(relabelled(g, seed))
            == _spectra_and_certificates(g))
