"""Actions, quotients, displacement and the group-identity audits."""
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from coverlab import (all_characters, arc_orbit_count, automorphism_group,
                      character_matrix, cover_from_voltages, covering_group,
                      cube,
                      displacement_profile, fibre_action, hexagon,
                      icosahedron, quotient_cover, structure_audit,
                      subdegree_identity_check, subgroups_of, thas_somma,
                      verify_cover)
from coverlab.autgroup import automorphism_generators
from coverlab.exact import QuadExt, is_integral
from coverlab.graphcore import (CoverGraph, GraphStructureError,
                                cover_report, is_automorphism, params_of)
from coverlab.groupops import (QuotientError, SizeBoundExceeded,
                               _fibre_fixing_automorphisms,
                               involution_audit, involution_types,
                               is_cover_automorphism, kernel_images,
                               kernel_info, kernel_voltages)
from coverlab.perms import PermGroup, Permutation
from conftest import (closure_elements, gosset_cover,
                      imprimitive_rank3_group, kernel_positions,
                      matching_swapped, named_cover, orbit_numbers,
                      rank3_subgroup_ts31, relabelled, symplectic_witnesses)
from test_constructions import symplectic_voltages, voltage_counts
from test_frames import ETF_CORPUS


@pytest.fixture(scope="module")
def auts(corpus):
    return {name: automorphism_group(g) for name, g in corpus.items()}


def test_covering_groups(corpus, auts):
    expected_order = {"hexagon": 2, "cube": 2, "icosahedron": 2,
                      "ts31": 3, "ts41": 4}
    for name, g in corpus.items():
        kernel, info = covering_group(g, auts[name])
        assert info["order"] == expected_order[name], name
        assert info["abelian_cover"], name
        # the kernel of Aut is all of K, as covering_group(g) finds it
        k2, info2 = covering_group(g)
        assert info2["order"] == info["order"]
        assert all(p in kernel for p in k2.generators)


ORACLE_COVERS = {"hexagon": hexagon, "cube": cube,
                 "icosahedron": icosahedron,
                 "ts31": lambda: thas_somma(3, 1),
                 "ts22": lambda: thas_somma(2, 2),
                 "ts41": lambda: thas_somma(4, 1)}


def coloured_search_elements(g):
    """The fibre-fixing automorphisms by the coloured automorphism search."""
    gens = automorphism_generators(g.adjacency_matrix(),
                                   colors=list(g.fibre_of))
    return {p.img for p in PermGroup(gens, g.v).elements()}


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_covering_group_matches_coloured_search(name):
    """Matching propagation finds exactly the group the coloured
    automorphism search finds, under relabelling too."""
    base = ORACLE_COVERS[name]()
    for g in (base, relabelled(base, 1), relabelled(base, 2)):
        kernel, info = covering_group(g)
        got = {p.img for p in kernel.elements()}
        assert got == coloured_search_elements(g), name
        assert info["order"] == len(got) == g.r and info["abelian_cover"]
        if name != "hexagon":  # its swapped copy splits into two triangles
            # the swap keeps every matching perfect, so propagation still
            # runs; it must reject the images that give no automorphism
            sw = matching_swapped(g)
            got = set(map(tuple, _fibre_fixing_automorphisms(sw).tolist()))
            assert got == coloured_search_elements(sw), name


def test_covering_group_rejects_non_cover():
    base = thas_somma(4, 1)
    g = matching_swapped(base)
    assert not verify_cover(g).is_cover
    with pytest.raises(GraphStructureError, match="not a cover: .*mu"):
        covering_group(g)
    # with a group too, and before its generators are checked
    with pytest.raises(GraphStructureError, match="not a cover: .*mu"):
        covering_group(g, covering_group(base)[0])


def test_covering_group_is_recorded_once(monkeypatch):
    """K and its info are recorded on the graph: a second covering_group(g)
    returns the same PermGroup and info, with no new matching propagation,
    no new kernel_info and no new chain; a group containing K gets that
    same record as its kernel."""
    from coverlab import groupops
    g = thas_somma(3, 1)
    kernel, info = covering_group(g)
    assert kernel.order() == 3
    calls = []
    for name in ("_fibre_fixing_automorphisms", "kernel_info"):
        monkeypatch.setattr(groupops, name,
                            lambda *a, _n=name: calls.append(_n))
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: calls.append("chain"))
    again, info2 = covering_group(g)
    assert again is kernel and info2 is info and calls == []
    monkeypatch.undo()
    aut = automorphism_group(g)
    assert covering_group(g, aut)[0] is kernel


def test_kernel_elements_are_listed_once(monkeypatch):
    """K's (|K| x v) image array is recorded with K, identity first, and
    character_matrix reads it; kernel_info reads regularity off |K| = r.
    Neither lists K's elements through its chain."""
    from coverlab import groupops
    from coverlab.frames import all_characters, character_matrix
    g = relabelled(thas_somma(4, 1), 1)
    listed = []
    elements = PermGroup.elements
    monkeypatch.setattr(PermGroup, "elements",
                        lambda self: listed.append(self) or elements(self))
    kernel, info = covering_group(g)
    character_matrix(g, all_characters(kernel)[1], kernel=kernel)
    assert listed == [] and info["abelian_cover"]
    images = groupops.kernel_images(g)
    assert images.tolist()[0] == list(range(g.v))
    assert not images.flags.writeable
    monkeypatch.undo()
    assert sorted(map(tuple, images.tolist())) == sorted(
        p.img for p in kernel.elements())
    assert kernel_info(g, kernel) == info


@pytest.fixture(scope="module")
def kernel_cases():
    """(graph, group) pairs: Aut on four covers and a relabelled copy of
    each, the rank-3 subgroup (kernel Z3), and a point stabilizer (kernel
    trivial)."""
    cases = {}
    for name in ("hexagon", "cube", "icosahedron", "ts31"):
        base = ORACLE_COVERS[name]()
        for label, g in ((name, base), (f"{name}-relabelled",
                                        relabelled(base, 3))):
            cases[label] = (g, automorphism_group(g))
    ts31 = thas_somma(3, 1)
    cases["ts31-rank3"] = (ts31, rank3_subgroup_ts31())
    cases["ts31-stabilizer"] = (
        ts31, automorphism_group(ts31).point_stabilizer(0))
    return cases


@pytest.mark.parametrize("case", [
    "hexagon", "hexagon-relabelled", "cube", "cube-relabelled",
    "icosahedron", "icosahedron-relabelled", "ts31", "ts31-relabelled",
    "ts31-rank3", "ts31-stabilizer"])
def test_covering_group_of_group_matches_closure(case, kernel_cases):
    """covering_group(g, H) is the set of fibre-fixing elements of H, as
    a plain closure of H's generators lists them."""
    g, group = kernel_cases[case]
    kernel, info = covering_group(g, group)
    fo = g.fibre_of
    expected = {e for e in closure_elements(group.generators, g.v)
                if all(fo[e[x]] == fo[x] for x in range(g.v))}
    assert {p.img for p in kernel.elements()} == expected
    assert info["order"] == len(expected)
    if case == "ts31-rank3":
        assert info["order"] == 3 and info["abelian_cover"]
    elif case == "ts31-stabilizer":
        assert info["order"] == 1 and not info["regular_on_fibres"]
    else:  # H = Aut(g) contains K, so the generators are those of K
        full, _ = covering_group(g)
        assert [p.img for p in kernel.generators] == \
            [p.img for p in full.generators]


def test_quotients_verify_parent_once(verify_calls):
    """Quotients by U <= K get their report from the theorem: only the
    parent is verified, at most once, and never a quotient, though
    cover_report, params_of, covering_group and character_matrix read
    each quotient's report."""
    g = thas_somma(4, 1)
    kernel, _ = covering_group(g)
    subs = [u for u in subgroups_of(kernel) if u.order() < g.r]
    quotients = [quotient_cover(g, u) for u in subs]
    assert len(subs) == 4  # trivial and the three of order 2
    for q in quotients:
        assert cover_report(q).is_cover and params_of(q).r == q.r
        k, _ = covering_group(q)
        assert character_matrix(q, all_characters(k)[1]).n == q.n
    assert verify_calls in ([], [g])


def _reverified(q):
    """verify_cover's report on a fresh copy of q, with no record."""
    return verify_cover(CoverGraph(q.fibres, q.edges, q.v)).to_json()


@pytest.mark.parametrize("q, k", [(4, 1), (8, 1), (4, 2)])
def test_quotient_report_is_the_verified_one(q, k):
    """The report quotient_cover derives from the parent's is the one
    verify_cover finds on a copy of the quotient: for every subgroup
    U < K (order below r), on TS(q, k) as built and relabelled by seeds
    1 and 2."""
    base = thas_somma(q, k)
    for g in (base, relabelled(base, 1), relabelled(base, 2)):
        kernel, _ = covering_group(g)
        subs = [u for u in subgroups_of(kernel) if u.order() < g.r]
        assert len(subs) > 1
        for sub in subs:
            quot = quotient_cover(g, sub)
            rep = quot._report
            assert (rep.n, rep.r, rep.mu) == (
                g.n, g.r // sub.order(), g._report.mu * sub.order())
            assert rep.to_json() == _reverified(quot)


def test_quotient_rejects_a_fibre_fixing_non_automorphism():
    """U = <p>, p acting as one element of K on fibre 1 and as another on
    the other fibres, fixes every fibre and is semiregular of order 2 < r,
    but is no automorphism, so it is not in K."""
    g = thas_somma(4, 1)
    k1, k2 = np.array(kernel_images(g)[1:3])
    img = np.where(g._fibre_of == 1, k1, k2)
    p = Permutation(img.tolist())
    assert not is_cover_automorphism(g, p)
    sub = PermGroup([p], g.v)
    assert sub.order() == 2 and (img != np.arange(g.v)).all()
    with pytest.raises(QuotientError, match="covering group"):
        quotient_cover(g, sub)


def test_quotient_of_a_non_cover_raises(corpus):
    """A parent that is no cover has no K to take a quotient by: a
    matching_swapped copy raises, for the trivial group and for an
    element of the cover's K."""
    g = corpus["ts41"]
    bad = matching_swapped(g)
    for sub in (PermGroup([], g.v),
                PermGroup([Permutation(kernel_images(g)[1].tolist())], g.v)):
        with pytest.raises(GraphStructureError, match="not a cover"):
            quotient_cover(bad, sub)


def test_covering_group_semiregular(corpus, auts):
    """K acts semiregularly on vertices; |K| = r on these abelian covers."""
    for name, g in corpus.items():
        kernel, info = covering_group(g, auts[name])
        assert g.r % info["order"] == 0 and info["order"] == g.r
        assert all(len(o) == info["order"] for o in kernel.orbits())


def test_kernel_info_reads_abelianity_at_one_point():
    """kernel_info's abelianity, read at vertex 0 alone, holds on K of every
    corpus cover, and fails on a non-abelian semiregular group: D4 acting
    on itself by left multiplication, repeated inside each fibre of TS(8,1)."""
    ts81 = thas_somma(8, 1)
    for name, make in dict(ORACLE_COVERS, ts81=lambda: ts81).items():
        assert covering_group(make())[1]["is_abelian"], name
    # rho^k phi^e is labelled k + 4e; rho and phi multiply it on the left
    rho = [(k + 1) % 4 + 4 * e for e in (0, 1) for k in range(4)]
    phi = [-k % 4 + 4 * (1 - e) for e in (0, 1) for k in range(4)]
    d4 = PermGroup([Permutation([x - x % 8 + p[x % 8] for x in range(ts81.v)])
                    for p in (rho, phi)], ts81.v)
    info = kernel_info(ts81, d4)
    assert info["order"] == 8 and info["regular_on_fibres"]
    assert not info["is_abelian"] and not info["abelian_cover"]


@pytest.mark.parametrize("q, seed", ((4, 1), (8, 2)))
def test_kernel_info_regularity_matches_orbit_oracle(q, seed):
    """kernel_info calls a fibre-fixing group regular on the fibres iff its
    orbits, listed here from a closure of its elements, are the fibres: on
    every subgroup U of K of a relabelled TS(q,1), the trivial group and K
    among them."""
    g = relabelled(thas_somma(q, 1), seed)
    subs = subgroups_of(covering_group(g)[0])
    fibres = {frozenset(f) for f in g.fibres}
    regular = []
    for sub in subs:
        elements = closure_elements(sub.generators, g.v)
        orbits = {frozenset(e[x] for e in elements) for x in range(g.v)}
        info = kernel_info(g, sub)
        assert info["order"] == len(elements)
        assert info["regular_on_fibres"] == (orbits == fibres)
        regular.append(info["regular_on_fibres"])
    assert sum(regular) == 1 and len(regular) > 2


def test_kernel_images_rows_are_permutations(corpus):
    """Every row of kernel_images is a permutation of the vertices, on the
    corpus covers and relabelled copies, and a matching_swapped copy, which
    is no cover, gets no image array.  On the swapped hexagon, two
    triangles, the matching propagation alone keeps rows that send both
    triangles onto one: only the verified cover's connectivity makes every
    kept row a bijection."""
    for name, base in corpus.items():
        for g in (base, relabelled(base, 1)):
            images = kernel_images(g)
            assert images.shape == (g.r, g.v), name
            assert (np.sort(images, axis=1) == np.arange(g.v)).all(), name
        with pytest.raises(GraphStructureError):
            kernel_images(matching_swapped(base))
    swapped = matching_swapped(corpus["hexagon"])
    rows = _fibre_fixing_automorphisms(swapped).tolist()
    assert rows and all(sorted(r) != list(range(swapped.v)) for r in rows)


def test_covering_group_hexagon_is_rotation():
    g = hexagon()
    kernel, _ = covering_group(g)
    els = sorted(p.img for p in kernel.elements())
    assert els == [(0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2)]


def test_covering_group_ts31_is_translations():
    translation, shift, linear = symplectic_witnesses(3)
    g = thas_somma(3, 1)
    kernel, info = covering_group(g)
    assert info["order"] == 3
    els = {p.img for p in kernel.elements()}
    assert els == {shift(c).img for c in range(3)}


def test_fibre_action_ranks(corpus, auts):
    # full groups act 2-transitively on fibres: rank 2 everywhere
    for name, g in corpus.items():
        fa = fibre_action(g, auts[name])
        assert fa.transitive and fa.rank == 2, name
        assert fa.subdegrees == (1, g.n - 1)


def test_rank_identity_arc_orbits(corpus, auts):
    for name, g in corpus.items():
        fa = fibre_action(g, auts[name])
        arcs = arc_orbit_count(g, fa)
        assert arcs["rank_identity_applicable"], name
        assert arcs["arc_orbits"] == fa.rank - 1, name


def test_rank_identity_on_rank3_subgroup():
    g = thas_somma(3, 1)
    sub = rank3_subgroup_ts31()
    assert sub.order() == 108
    fa = fibre_action(g, sub)
    assert fa.rank == 3 and fa.subdegrees == (1, 4, 4)
    arcs = arc_orbit_count(g, fa)
    assert arcs["rank_identity_applicable"]
    assert arcs["arc_orbits"] == fa.rank - 1 == 2


def test_rank_identity_on_quotients(corpus, auts):
    g = corpus["ts41"]
    kernel, _ = covering_group(g, auts["ts41"])
    for sub in subgroups_of(kernel):
        if sub.order() != 2:
            continue
        q = quotient_cover(g, sub)
        aq = automorphism_group(q)
        fa = fibre_action(q, aq)
        arcs = arc_orbit_count(q, fa)
        assert arcs["rank_identity_applicable"]
        assert arcs["arc_orbits"] == fa.rank - 1


def test_quotients_ts41(corpus, auts):
    g = corpus["ts41"]
    kernel, _ = covering_group(g, auts["ts41"])
    order2 = [s for s in subgroups_of(kernel) if s.order() == 2]
    assert len(order2) == 3
    for sub in order2:
        q = quotient_cover(g, sub)
        rep = verify_cover(q)
        assert rep.is_cover and (rep.n, rep.r, rep.mu) == (16, 2, 8)


def test_quotient_rejections(corpus, auts):
    g = corpus["ts31"]
    kernel, _ = covering_group(g, auts["ts31"])
    with pytest.raises(QuotientError):
        quotient_cover(g, kernel)  # |U| = r
    rot = automorphism_group(hexagon()).generators
    non_fixing = [p for p in rot
                  if any(hexagon().fibre_of[p[x]] != hexagon().fibre_of[x]
                         for x in range(6))]
    with pytest.raises(QuotientError):
        quotient_cover(hexagon(), PermGroup([non_fixing[0]], 6))


@pytest.mark.parametrize("q,count", [(4, 4), (8, 15)])
def test_quotient_cover_matches_all_edges_oracle(q, count):
    """On every subgroup U < K of TS(q,1) (K = GF(q)^+, elementary abelian:
    1 + 3 of TS(4,1), 1 + 7 + 7 of TS(8,1)), the quotient's edges are every
    edge of g between two U-orbits, orbits numbered by least element, and
    its fibres the sets of orbits that meet each fibre of g; so too on a
    relabelled copy, whose U-orbits lie scattered over each fibre."""
    for g in (thas_somma(q, 1), relabelled(thas_somma(q, 1), 5)):
        kernel, _ = covering_group(g)
        subs = [s for s in subgroups_of(kernel) if s.order() < g.r]
        assert len(subs) == count
        for sub in subs:
            orbit = {}
            for x in range(g.v):
                if x not in orbit:
                    orb, stack = {x}, [x]
                    while stack:
                        y = stack.pop()
                        for p in sub.generators:
                            if p.img[y] not in orb:
                                orb.add(p.img[y])
                                stack.append(p.img[y])
                    for y in orb:
                        orbit[y] = x
            index = {m: i for i, m in enumerate(sorted(set(orbit.values())))}
            of = {x: index[m] for x, m in orbit.items()}
            edges = {(min(of[u], of[w]), max(of[u], of[w]))
                     for u, w in g.edges if of[u] != of[w]}
            fibres = sorted(tuple(sorted({of[x] for x in f}))
                            for f in g.fibres)
            quot = quotient_cover(g, sub)
            assert quot.edges == tuple(sorted(edges))
            assert quot.fibres == tuple(fibres)


def test_is_cover_automorphism_matches_edge_walk(corpus, auts):
    """The matrix test agrees with walking every edge through the image."""
    rng = random.Random(3)
    for name, g in corpus.items():
        edges = set(g.edges)
        perms = list(auts[name].generators)
        for p in list(perms):
            img = list(p.img)
            i, j = rng.sample(range(g.v), 2)
            img[i], img[j] = img[j], img[i]
            perms.append(Permutation(img))
        perms += [Permutation(rng.sample(range(g.v), g.v)) for _ in range(5)]
        for p in perms:
            walk = all((min(p[u], p[w]), max(p[u], p[w])) in edges
                       for u, w in edges)
            assert is_cover_automorphism(g, p) is walk
            assert is_automorphism(g.adjacency_matrix(), p.img) is walk
        assert any(is_cover_automorphism(g, p) for p in perms)
        assert is_cover_automorphism(g, list(range(g.v + 1))) is False


@pytest.mark.parametrize("img", [[-6, 1, 2, 3, 4, 5], [6, 1, 2, 3, 4, 5],
                                 [0, 0, 2, 3, 4, 5]],
                         ids=["negative", "v", "repeated"])
def test_non_permutation_images_rejected(img):
    """An image list that is not a permutation of the vertices is no
    automorphism, whatever numpy indexing would make of it: a negative
    entry wraps to the identity, an entry v is out of range."""
    g = hexagon()
    assert is_cover_automorphism(g, img) is False
    with pytest.raises(ValueError, match="not a permutation of the 6 "
                                         "vertices"):
        fibre_action(g, PermGroup([img], g.v))
    for audit in (displacement_profile, involution_audit):
        with pytest.raises(ValueError, match="not an automorphism"):
            audit(g, img)


def test_quotient_rejects_subgroup_of_other_degree(corpus):
    g = corpus["ts31"]
    for degree in (g.v - 1, g.v + 1):
        with pytest.raises(QuotientError, match="acts on"):
            quotient_cover(g, PermGroup([], degree))


def test_trivial_quotient_is_identity(corpus):
    g = corpus["ts31"]
    q = quotient_cover(g, PermGroup([], g.v))
    assert q.fibres == g.fibres and q.edges == g.edges


def test_nested_quotients_compose():
    """Quotient by U2 equals quotient-of-quotient through U1 < U2 (TS(8,1))."""
    g = thas_somma(8, 1)
    kernel, info = covering_group(g)  # Z2^3 by matching propagation
    assert info["order"] == 8 and info["abelian_cover"]
    subs = subgroups_of(kernel)
    u1 = next(s for s in subs if s.order() == 2)
    u2s = [s for s in subs if s.order() == 4
           and all(p in s for p in u1.generators)]
    assert u2s
    u2 = u2s[0]
    direct = quotient_cover(g, u2)
    first = quotient_cover(g, u1)
    # push U2 through the first quotient: images of its generators
    orbits = sorted(u1.orbits(), key=lambda o: o[0])
    orbit_of = {}
    for i, o in enumerate(orbits):
        for x in o:
            orbit_of[x] = i
    induced = []
    for p in u2.generators:
        img = [0] * len(orbits)
        for i, o in enumerate(orbits):
            img[i] = orbit_of[p[o[0]]]
        induced.append(Permutation(img))
    second = quotient_cover(first, PermGroup(induced, len(orbits)))
    assert second.fibres == direct.fibres and second.edges == direct.edges
    for quot in (direct, first, second):
        assert quot._report.to_json() == _reverified(quot)


def test_displacement_profiles(corpus):
    c = corpus["cube"]
    anti = Permutation([7 - u for u in range(8)])
    flip = Permutation([u ^ 4 for u in range(8)])
    swap = Permutation([((u >> 1) & 1) << 2 | ((u >> 2) & 1) << 1 | (u & 1)
                        for u in range(8)])
    assert displacement_profile(c, anti) == (0, 0, 0, 8)
    assert displacement_profile(c, flip) == (0, 8, 0, 0)
    assert displacement_profile(c, swap) == (4, 0, 4, 0)
    with pytest.raises(ValueError):
        displacement_profile(c, Permutation([1, 0, 2, 3, 4, 5, 6, 7]))


def test_displacement_sums_and_conjugacy(corpus, auts):
    for name in ("hexagon", "cube", "icosahedron", "ts31"):
        g, aut = corpus[name], auts[name]
        els = list(aut.elements(limit=5000)) if aut.order() <= 5000 else \
            list(aut.generators)
        for p in els[:60]:
            alpha = displacement_profile(g, p)
            assert sum(alpha) == g.v
        # conjugate elements share profiles
        gens = aut.generators
        for p in gens[:3]:
            base = displacement_profile(g, p)
            for h in gens[:3]:
                conj = h.inverse() * p * h
                assert displacement_profile(g, conj) == base


def test_involution_audit_cube_swap(corpus):
    """The swap of the cube's two high bits fixes 0, 1, 6 and 7, two
    fibres of two: l = f = 2.  The cube has lambda = 0 < mu = 2, so the
    case-l>1 chain is its one item, and inapplicable."""
    c = corpus["cube"]
    swap = Permutation([((u >> 1) & 1) << 2 | ((u >> 2) & 1) << 1 | (u & 1)
                        for u in range(8)])
    assert [i.to_json() for i in involution_audit(c, swap)] == [
        {"lemma": "involution-fixed-subgraph", "item": "case-l>1-chain",
         "status": "inapplicable",
         "witness": {"reason": "needs lambda >= mu"}}]


def test_involution_audit_hexagon_reflection(corpus):
    g = corpus["hexagon"]
    refl = Permutation([0, 5, 4, 3, 2, 1])  # fixes 0 and 3, one fibre
    items = [(i.item, i.status, i.witness) for i in involution_audit(g, refl)]
    assert items == [("case-l=1", "pass", {"f": 2, "r": 2}),
                     ("case-l=1-t-even", "pass", {"t": 2})]
    # t is read off params_of(g), derive_params' QuadExt tau = -2
    assert type(params_of(g).tau) is QuadExt


def test_involution_audit_fixed_point_free(corpus):
    g = corpus["cube"]
    anti = Permutation([7 - u for u in range(8)])
    items = involution_audit(g, anti)
    assert [(i.item, i.status) for i in items] == [("applicability",
                                                    "inapplicable")]


# (item, status) -> count over the involutions of Aut, per corpus cover
INVOLUTION_TALLIES = {
    "hexagon": {("case-l=1", "pass"): 3, ("case-l=1-t-even", "pass"): 3,
                ("applicability", "inapplicable"): 4},
    "cube": {("case-l>1-chain", "inapplicable"): 6,
             ("applicability", "inapplicable"): 13},
    "icosahedron": {("case-l>1-chain", "pass"): 15,
                    ("applicability", "inapplicable"): 16},
    "ts31": {("case-l=1", "pass"): 9, ("case-l=1-t-even", "pass"): 9,
             ("case-f=1-hoffman", "pass"): 108,
             ("case-l>1-chain", "inapplicable"): 108},
    "ts41": {("case-l>1-chain", "inapplicable"): 300,
             ("applicability", "inapplicable"): 243},
}


def involution_witnesses(g, p) -> list[tuple]:
    """involution_audit's (item, witness) pairs for p, from pair loops: l
    counted as the fibres p fixes setwise, which are the fibres holding a
    fixed point and hold f each; |X| and alpha_1 counted vertex by vertex
    over has_edge."""
    fixed = p.fixed_points()
    if not fixed:
        return [("applicability", {"reason": "fixed-point-free involution"})]
    setwise = [i for i, fb in enumerate(g.fibres)
               if {p[x] for x in fb} == set(fb)]
    assert {g.fibre_of[x] for x in fixed} == set(setwise)
    (f,) = {sum(1 for x in g.fibres[i] if p[x] == x) for i in setwise}
    l, rep, tau = len(setwise), cover_report(g), params_of(g).tau
    n, r, mu, lam = rep.n, rep.r, rep.mu, rep.lam
    t = -int(tau) if is_integral(tau) else None
    out = []
    if l == 1:
        out.append(("case-l=1", {"f": f, "r": r}))
        out.append(("case-l=1-t-even", {"t": t} if t is not None
                    else {"reason": "tau is not an integer"}))
    if f == 1 < l and t is not None and t >= 2:
        out.append(("case-f=1-hoffman",
                    {"l": l, "r*mu/(t-1)": str(Fraction(r * mu, t - 1))}))
    if l > 1 and lam < mu:
        out.append(("case-l>1-chain", {"reason": "needs lambda >= mu"}))
    elif l > 1:
        xs = [u for u in range(g.v) if p[u] != u
              and any(g.has_edge(u, w) for w in fixed)]
        alpha1 = sum(1 for u in range(g.v) if g.has_edge(u, p[u]))
        out.append(("case-l>1-chain", {
            "f": f, "|X|/(n-l)": str(Fraction(len(xs), n - l)),
            "|Omega|": len(fixed),
            "bound": str(Fraction((lam - mu) * alpha1, n - l) + r * mu),
            "r*lambda": r * lam}))
    return out


def test_involution_audit_all_involutions_all_covers(corpus, auts):
    """Acceptance property: every involution of every corpus cover gets
    the items and witnesses of involution_witnesses, the lemma's for its
    l, f and t, and fails none; the items and statuses over all of them
    are pinned per cover."""
    for name, g in corpus.items():
        tally = Counter()
        for p in auts[name].elements(limit=30_000):
            if p.order() != 2:
                continue
            items = involution_audit(g, p)
            assert [(i.item, i.witness) for i in items] == \
                involution_witnesses(g, p), name
            tally.update((i.item, i.status) for i in items)
        assert dict(tally) == INVOLUTION_TALLIES[name], name


def test_audits_check_each_automorphism_once(corpus, monkeypatch):
    """involution_audit checks its involution once (displacement_profile's
    own check is not repeated), and the group's generators are checked
    once, in fibre_action, whose report subdegree_identity_check reads."""
    from coverlab import groupops
    calls = {"is_cover_automorphism": 0, "require_automorphisms": 0}
    for name in calls:
        original = getattr(groupops, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(groupops, name, counting)
    involution_audit(corpus["hexagon"], Permutation([0, 5, 4, 3, 2, 1]))
    assert calls["is_cover_automorphism"] == 1
    g = thas_somma(3, 1)
    subdegree_identity_check(g, fibre_action(g, rank3_subgroup_ts31()))
    assert calls["require_automorphisms"] == 1


def involution_scan(g, elements) -> set[tuple]:
    """The displacement types of the involutions among elements, image
    tuples, each tested by its full square: the oracle for
    involution_types."""
    return {displacement_profile(g, Permutation(img)) for img in elements
            if img != tuple(range(g.v))
            and all(img[y] == x for x, y in enumerate(img))}


def test_involution_types_match_an_element_scan(corpus, auts):
    """On every corpus cover (|Aut| <= 25 000) the types found are the
    displacement profiles of all involutions of Aut, found by scanning
    every element, and each type comes with an involution of Aut of that
    type."""
    for name, g in corpus.items():
        aut = auts[name]
        assert aut.order() <= 25_000
        scanned = involution_scan(g, (p.img for p in aut.elements()))
        types, _ = involution_types(g, fibre_action(g, aut))
        assert [kind for kind, _ in types] == sorted(scanned), name
        for kind, x in types:
            assert x.order() == 2 and x in aut
            assert displacement_profile(g, x) == kind


@pytest.fixture(scope="module")
def ts22_seed2():
    """TS(2,2) relabelled by seed 2, its Aut, and the displacement types of
    all its involutions, found by scanning the 23 040 elements."""
    g = relabelled(thas_somma(2, 2), 2)
    aut = automorphism_group(g)
    return g, aut, involution_scan(g, closure_elements(aut.generators, g.v))


def test_ts22_has_ten_involution_types(ts22_seed2):
    g, aut, scanned = ts22_seed2
    assert aut.order() == 23_040 and len(scanned) == 10


def test_involution_types_find_rare_types(ts22_seed2):
    """Two of TS(2,2)'s ten types are drawn with probability 1/128 each by
    a uniform draw, and 400 seeded draws found all ten on 4 of the
    relabellings by seeds 2-13 only.  The scan finds the ten the element
    scan finds on seed 2 on each of those relabellings, scanning the same
    number of elements, |G_a| = 720 times the 4 G_a-orbits on the
    vertices; it finds the 9 types of W(E7) on the Gosset cover
    relabelled by seed 1 (see test_analyze_audits_gosset_covers)."""
    _, _, scanned = ts22_seed2
    for seed in range(2, 14):
        g = relabelled(thas_somma(2, 2), seed)
        types, count = involution_types(
            g, fibre_action(g, automorphism_group(g)))
        assert [kind for kind, _ in types] == sorted(scanned), seed
        assert count == 720 * 4
    g = relabelled(gosset_cover(-1), 1)
    types, _ = involution_types(g, fibre_action(g, automorphism_group(g)))
    assert len(types) == 9


def test_involution_types_bound_raises_before_the_scan(monkeypatch):
    """A stabilizer past STABILIZER_SCAN_MAX raises SizeBoundExceeded
    before any element array is made; at the bound itself the scan runs.
    TS(4,1) is vertex-transitive, so |G_a| v = |Aut| = 23 040."""
    from coverlab import groupops
    g = thas_somma(4, 1)
    fa = fibre_action(g, automorphism_group(g))
    arrays = []
    element_array = groupops._element_array
    monkeypatch.setattr(groupops, "_element_array", lambda *args: (
        arrays.append(1) or element_array(*args)))
    monkeypatch.setattr(groupops, "STABILIZER_SCAN_MAX", 23_039)
    with pytest.raises(SizeBoundExceeded, match="STABILIZER_SCAN_MAX"):
        involution_types(g, fa)
    assert arrays == []
    monkeypatch.setattr(groupops, "STABILIZER_SCAN_MAX", 23_040)
    assert len(involution_types(g, fa)[0]) == 6 and arrays == [1]


def brute_force_arc_orbits(g, elements) -> int:
    """Orbits on the arcs (u, w), u ~ w, of the group whose image tuples
    are elements."""
    arcs = {(u, w) for u in range(g.v) for w in g.neighbours(u)}
    count = 0
    while arcs:
        u, w = min(arcs)
        arcs -= {(e[u], e[w]) for e in elements}
        count += 1
    return count


ARC_ORBIT_CASES = {
    "ts31-aut": lambda g, aut: aut,
    "ts31-kernel": lambda g, aut: covering_group(g, aut)[0],
    "ts31-stabilizer": lambda g, aut: aut.point_stabilizer(0),
    "ts31-rank3": lambda g, aut: rank3_subgroup_ts31(),
    "hexagon": lambda g, aut: aut,
    "cube": lambda g, aut: aut,
    "icosahedron": lambda g, aut: aut,
    "ts22": lambda g, aut: aut,
}


@pytest.mark.parametrize("case", sorted(ARC_ORBIT_CASES))
def test_arc_orbit_count_matches_element_scan(case, corpus, auts):
    """The count against a scan of the group's elements, also where the
    rank identity does not apply (K and a vertex stabilizer)."""
    name = case.split("-")[0]
    if name == "ts22":
        g = thas_somma(2, 2)
        aut = automorphism_group(g)
    else:
        g, aut = corpus[name], auts[name]
    group = ARC_ORBIT_CASES[case](g, aut)
    assert (arc_orbit_count(g, fibre_action(g, group))["arc_orbits"]
            == brute_force_arc_orbits(g, closure_elements(group.generators,
                                                          g.v)))


def fibre_scan(g, elements):
    """(transitive, rank, subdegrees) on the fibres of the group whose
    image tuples are elements, read off their images on the fibres: the
    stabilizer of fibre 0 is the images fixing it, and its orbit of fibre
    j is the set of their values at j."""
    images = {tuple(g.fibre_of[e[f[0]]] for f in g.fibres) for e in elements}
    if len({img[0] for img in images}) != g.n:
        return False, None, None
    stab = [img for img in images if img[0] == 0]
    orbits = {frozenset(img[j] for img in stab) for j in range(g.n)}
    return True, len(orbits), tuple(sorted(map(len, orbits)))


@pytest.mark.parametrize("name, count", (("hexagon", 16), ("cube", 98),
                                         ("icosahedron", 164)))
def test_fibre_action_over_subgroup_lattice(name, count, corpus, auts):
    """For every subgroup H of Aut, fibre_action's transitivity, rank and
    subdegrees, arc_orbit_count's count and involution_types' types
    against scans of H's elements.
    247 of the 278 H are not vertex-transitive, and for each of the other
    31 the fibre stabilizer needs, besides G_a, the elements that move a
    inside its fibre."""
    g = corpus[name]
    subs = subgroups_of(auts[name])
    assert len(subs) == count
    for sub in subs:
        elements = closure_elements(sub.generators, g.v)
        fa = fibre_action(g, sub)
        assert (fa.transitive, fa.rank, fa.subdegrees) == \
            fibre_scan(g, elements), (name, len(elements))
        assert fa.vertex_transitive == (len({e[0] for e in elements}) == g.v)
        assert arc_orbit_count(g, fa)["arc_orbits"] == \
            brute_force_arc_orbits(g, elements), (name, len(elements))
        types, _ = involution_types(g, fa)
        assert [kind for kind, _ in types] == \
            sorted(involution_scan(g, elements)), (name, len(elements))


@pytest.mark.parametrize("name, count", (("hexagon", 16), ("cube", 98),
                                         ("icosahedron", 164)))
def test_subgroup_lattice_runs_no_schreier_sims(
        name, count, corpus, auts, monkeypatch):
    """subgroups_of reads each H's chain off its element list, so neither
    it nor fibre_action and arc_orbit_count run Schreier-Sims: K and H ∩ K
    are read off K's element list, and H's one chain on base
    (F*, a, F - {a}) and every further vertex stabilizer are
    rebased from H's chain.  With H
    given by bare generators this made one build per H, and a fresh
    Schreier-Sims chain for K, for H ∩ K and for each stabilizer made 54,
    339 and 735 builds."""
    g = corpus[name]
    builds, _ = record_chain_builds(monkeypatch)
    subs = subgroups_of(auts[name])
    assert len(subs) == count
    covering_group(g)
    for sub in subs:
        arc_orbit_count(g, fibre_action(g, sub))
    assert builds == []


@pytest.mark.parametrize("name", ("hexagon", "cube", "icosahedron", "ts81"))
def test_subgroups_of_chains_match_schreier_sims(name, corpus, auts):
    """The oracle for the chains read off element lists: every subgroups_of
    output has the order and, on every element of its parent group, the
    membership of a Schreier-Sims chain built here from the same
    generators.  The parents are Aut of three small covers (16, 98 and 164
    subgroups, chains of several levels) and TS(8,1)'s K (16 subgroups,
    one level each)."""
    if name == "ts81":
        parent = covering_group(thas_somma(8, 1))[0]
    else:
        parent = auts[name]
    elements = list(parent.elements())
    for sub in subgroups_of(parent):
        ref = PermGroup(sub.generators, sub.degree)
        assert ref._levels is None
        assert sub.order() == ref.order(), (name, sub.generators)
        assert [e in sub for e in elements] == [e in ref for e in elements]


def test_subdegree_identities_rank3():
    g = thas_somma(3, 1)
    sub = rank3_subgroup_ts31()
    res = subdegree_identity_check(g, fibre_action(g, sub))
    assert res["applicable"]
    assert (res["k1"], res["k2"]) == (4, 4)
    assert res["eq_lambda_holds"]
    # lambda1 = lambda2 = lambda = 1: the identity-case of both sides zero
    assert res["lambda1"] == res["lambda2"] == 1
    assert res["mu_checks"] and all(c["status"] == "pass"
                                    for c in res["mu_checks"])


@pytest.mark.parametrize("q", (3, 5, 7))
def test_imprimitive_rank3_group(q):
    """The paper's imprimitive rank-3 case on TS(q,1), with the values
    derived by hand (see conftest.imprimitive_rank3_group).  Vertex
    i q + c lies over the fibre vector u = (i // q, i % q); a = 0 lies
    over 0, and G_a's orbits on N(a) lie over the line u1 = 0 (q - 1
    vertices) and off it (q (q - 1)).  Each is a clique less one point's
    worth: every vertex has lambda = q - 2 neighbours inside its orbit, as
    a count over all its rows shows.  The q - 1 fibre-mates of a are fixed
    by G_a, and each sees the first orbit through no edge and the second
    through q - 1.  The lift of -I, which fixes a's fibre and sends every
    other vertex to a neighbour, gives the one involution type."""
    g = thas_somma(q, 1)
    group = imprimitive_rank3_group(q)
    assert group.order() == q ** 4 * (q - 1)
    assert g.fibre_of == tuple(x // q for x in range(g.v))
    fa = fibre_action(g, group)
    assert fa.transitive and fa.vertex_transitive
    assert fa.rank == 3 and fa.subdegrees == (1, q - 1, q * (q - 1))
    arcs = arc_orbit_count(g, fa)
    assert arcs["rank_identity_applicable"]
    assert arcs["arc_orbits"] == fa.rank - 1 == 2

    res = subdegree_identity_check(g, fa)
    assert res["applicable"] and res["eq_lambda_holds"]
    assert (res["k1"], res["k2"]) == (q - 1, q * (q - 1))
    assert res["lambda1"] == res["lambda2"] == q - 2
    a = g.adjacency_matrix()
    nbrs = np.flatnonzero(a[0])
    on_line = (nbrs // q) % q == 0
    for orbit, k in ((nbrs[on_line], q - 1), (nbrs[~on_line], q * (q - 1))):
        assert len(orbit) == k
        assert (a[np.ix_(orbit, orbit)].sum(axis=1) == q - 2).all()
    assert [c["a_star"] for c in res["mu_checks"]] == list(range(1, q))
    assert all((c["mu1"], c["mu2"], c["status"]) == (0, q - 1, "pass")
               for c in res["mu_checks"])

    assert all(item.status == "pass" for item in structure_audit(g, fa))
    types, _ = involution_types(g, fa)
    kind = (q, q * (q * q - 1), 0, 0)
    assert [t for t, _ in types] == [kind]
    _, _, linear = symplectic_witnesses(q)
    minus_one = linear([[-1, 0], [0, -1]])
    assert minus_one in group and minus_one.order() == 2
    assert displacement_profile(g, minus_one) == kind


def test_subdegree_inapplicable_rank2(corpus, auts):
    res = subdegree_identity_check(corpus["ts31"],
                                   fibre_action(corpus["ts31"], auts["ts31"]))
    assert not res["applicable"]


def test_structure_audit(corpus, auts):
    groups = {name: (corpus[name], auts[name])
              for name in ("hexagon", "cube", "ts31", "ts41")}
    ts22 = thas_somma(2, 2)
    groups["ts22"] = (ts22, automorphism_group(ts22))
    for name, (g, aut) in groups.items():
        items = structure_audit(g, fibre_action(g, aut))
        by_name = {i.item: i for i in items}
        assert len(items) == 5, name
        assert by_name["index-G:M-equals-n"].status == "pass", name
        assert by_name["M=K:Ga"].status == "pass", name
        assert by_name["C=CG(K)^Ga"].status == "pass", name
        assert by_name["Fix(Ga)=index-in-normalizer-divides-nr"].status == \
            "pass", name
        assert by_name["FixSigma(M)=index-in-normalizer-divides-n"].status == \
            "pass", name
    # spot value: |G:M| = 9 = n for the 27-vertex cover
    items = structure_audit(corpus["ts31"],
                            fibre_action(corpus["ts31"], auts["ts31"]))
    g_to_m = next(i for i in items if i.item == "index-G:M-equals-n")
    assert g_to_m.witness == {"|G|": 1296, "|M|": 144, "n": 9}


def generated_by(elements, degree: int) -> PermGroup:
    """The group the image tuples generate; an element joins the
    generators only when it is not yet a member."""
    group = PermGroup([], degree)
    for e in elements:
        if Permutation(e) not in group:
            group = PermGroup(group.generators + [Permutation(e)], degree)
    return group


@pytest.mark.parametrize("name", ("hexagon", "cube", "icosahedron", "ts31"))
def test_structure_audit_matches_element_scan(name):
    """The chain-based numbers of the audit (base vertex a = 0) against
    scans of every group element: |C_G(K) meet G_a|, |N_G(G_a) : G_a| and
    |N_G(M) : M|, with M the setwise stabilizer of a's fibre."""
    base = ORACLE_COVERS[name]()
    for g in (base, relabelled(base, 1)):
        aut = automorphism_group(g)
        kernel, _ = covering_group(g, aut)
        wit = {i.item: i.witness
               for i in structure_audit(g, fibre_action(g, aut))}
        elements = closure_elements(aut.generators, g.v)

        cgk = aut.centralizer_of_group(kernel)
        assert wit["C=CG(K)^Ga"]["|CG(K) meet Ga|"] == \
            sum(1 for p in cgk.elements() if p[0] == 0), name

        g_a = generated_by(sorted(e for e in elements if e[0] == 0), g.v)
        assert wit["M=K:Ga"]["|Ga|"] == g_a.order()
        assert wit["Fix(Ga)=index-in-normalizer-divides-nr"]["|N:Ga|"] == \
            aut.normalizer(g_a).order() // g_a.order(), name

        fibre = set(g.fibres[g.fibre_of[0]])
        m = generated_by(sorted(e for e in elements
                                if {e[x] for x in fibre} == fibre), g.v)
        assert wit["M=K:Ga"]["|M|"] == m.order()
        assert wit["FixSigma(M)=index-in-normalizer-divides-n"]["|N:M|"] == \
            aut.normalizer(m).order() // m.order(), name


def audit_with(g, fa, **groups) -> dict:
    """structure_audit's items by name, on fa with the groups named
    (m, g_a or c) swapped for the ones given; a swapped M brings its own
    transversal."""
    return {i.item: i for i in structure_audit(g, replace(fa, **groups))}


def failing(by_name: dict) -> set:
    return {name for name, i in by_name.items() if i.status == "fail"}


def assert_fails_with_group_for_c(g, fa, tail) -> None:
    """With tail read as C, the C = C_G(K) meet G_a item, and only it,
    fails with tail's order, no |C_G(K) meet G_a| and a pair [i, j]:
    tail's i-th generator, on the vertices, does not commute with the
    j-th element of K."""
    by_name = audit_with(g, fa, c=tail)
    assert failing(by_name) == {"C=CG(K)^Ga"}
    wit = by_name["C=CG(K)^Ga"].witness
    i, j = wit["non_commuting"]
    assert wit == {"|C|": tail.order(), "|CG(K) meet Ga|": None,
                   "non_commuting": [i, j]}
    c, x = Permutation(tail.generators[i].img[:g.v]), fa.kernel.generators[j]
    assert (c * x).img != (x * c).img


def test_structure_audit_can_fail(corpus, auts):
    """G_a put in place of C = G_F must fail the C = C_G(K) meet G_a item,
    by a generator that does not commute with K: on TS(3,1), |G_a| = 48
    while |C| = |C_G(K) meet G_a| = 24."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    assert fa.g_a.order() == 48 and fa.c.order() == 24
    assert_fails_with_group_for_c(g, fa, fa.g_a)


def test_structure_audit_fails_with_m_for_c(corpus, auts):
    """M = K : G_a put in place of C = G_F must fail the C = C_G(K) meet
    G_a item the same way: on TS(3,1), |M| = 144 against |C| = 24."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    assert fa.m.order() == 144
    assert_fails_with_group_for_c(g, fa, fa.m)


def test_structure_audit_fails_with_c_for_ga(corpus, auts):
    """C put in place of G_a must fail M = K : G_a, and only it, on
    TS(3,1): |M| = 144 = 3 * 48, but |C| = 24."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    by_name = audit_with(g, fa, g_a=fa.c)
    assert failing(by_name) == {"M=K:Ga"}
    assert by_name["M=K:Ga"].witness == {"|M|": 144, "|K|": 3, "|Ga|": 24}


def test_structure_audit_fails_with_ga_for_m(corpus, auts):
    """G_a put in place of M = G_{F} must fail |G : M| = n on TS(3,1):
    |G| = 1296 = 144 * 9, but 48 * 9 = 432; M = K : G_a fails with it.
    G_a's transversal, read for M's, starts at a point of F - {a}, so
    sending(a) finds no element and the normalizer item fails too."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    by_name = audit_with(g, fa, m=fa.g_a)
    assert failing(by_name) == {"index-G:M-equals-n", "M=K:Ga",
                                "Fix(Ga)=index-in-normalizer-divides-nr"}
    assert by_name["index-G:M-equals-n"].witness == {"|G|": 1296, "|M|": 48,
                                                     "n": 9}
    fix = by_name["Fix(Ga)=index-in-normalizer-divides-nr"]
    assert fix.witness == {"|Fix(Ga)|": 1, "|N:Ga|": 0, "nr": 27}


def test_structure_audit_fails_with_g_for_m(corpus, auts):
    """G put in place of M, the chain for its tail after one point, must
    fail |Fix_Sigma(M)| = |N_G(M) : M| on TS(3,1): G fixes no fibre, but
    every fibre's transversal element normalises G.  Its transversal holds
    fibre points only, so the normalizer item of G_a fails too, and both
    order items."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    by_name = audit_with(g, fa, m=fa.chain)
    assert failing(by_name) == {"index-G:M-equals-n", "M=K:Ga",
                                "Fix(Ga)=index-in-normalizer-divides-nr",
                                "FixSigma(M)=index-in-normalizer-divides-n"}
    fix = by_name["FixSigma(M)=index-in-normalizer-divides-n"]
    assert fix.witness == {"|FixSigma(M)|": 0, "|N:M|": 9, "n": 9}


def record_chain_builds(monkeypatch):
    """Lists of the groups Schreier-Sims builds a chain for and of the
    degrees of the chains rebased builds, from now on."""
    builds, known_order = [], []
    build, rebased = PermGroup._build_chain, PermGroup.rebased
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))

    def recorded(self, *args):
        chain = rebased(self, *args)
        known_order.append(chain.degree)
        return chain
    monkeypatch.setattr(PermGroup, "rebased", recorded)
    return builds, known_order


def test_structure_audit_builds_one_chain(corpus, auts, monkeypatch):
    """fibre_action runs no Schreier-Sims and rebases G once, by
    known-order sifting, onto the vertices and a point per fibre; after it
    the audit rebases nothing and runs no Schreier-Sims, as M, G_a, C and
    the transversals are all read off that one chain."""
    g, aut = corpus["ts31"], auts["ts31"]
    builds, known_order = record_chain_builds(monkeypatch)
    fa = fibre_action(g, aut)
    assert builds == [] and known_order == [g.v + g.n]
    items = structure_audit(g, fa)
    assert all(i.status == "pass" for i in items)
    assert builds == [] and known_order == [g.v + g.n]


def test_rank3_stages_build_no_chain_after_fibre_action(monkeypatch):
    """On the rank-3 subgroup of TS(3,1), vertex-transitive, the arc
    orbits and the subdegree identities read G_a off fibre_action's
    chain: neither runs Schreier-Sims or builds a chain of its own."""
    g = thas_somma(3, 1)
    fa = fibre_action(g, rank3_subgroup_ts31())
    assert fa.vertex_transitive and fa.rank == 3
    builds, known_order = record_chain_builds(monkeypatch)
    assert arc_orbit_count(g, fa)["arc_orbits"] == 2
    assert subdegree_identity_check(g, fa)["applicable"]
    assert builds == [] and known_order == []


@pytest.mark.parametrize("shift", (-1, 1))
def test_groups_of_another_degree_rejected(shift):
    """A group on v - 1 or v + 1 points is rejected by its degree, even
    the trivial one, which has no generator to check."""
    g = thas_somma(3, 1)
    degree = g.v + shift
    for group in (PermGroup([], degree),
                  PermGroup([Permutation([1, 0] + list(range(2, degree)))],
                            degree)):
        for call in (fibre_action, covering_group):
            with pytest.raises(ValueError, match=f"group acts on {degree} "
                               f"points, not on the {g.v} vertices"):
                call(g, group)


def test_non_automorphism_groups_rejected(corpus):
    g = corpus["ts31"]
    bogus = PermGroup([Permutation([1, 0] + list(range(2, g.v)))], g.v)
    assert not is_cover_automorphism(g, bogus.generators[0])
    with pytest.raises(ValueError, match="not a graph automorphism"):
        fibre_action(g, bogus)
    with pytest.raises(ValueError, match="not a graph automorphism"):
        covering_group(g, bogus)


def extended_action(g):
    """The action of fibre_action's chain, written out: p on the vertices,
    then on the point v + i of each fibre i."""
    def extend(p):
        return Permutation(list(p.img)
                           + [g.v + g.fibre_of[p[f[0]]] for f in g.fibres])
    return extend


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
@pytest.mark.parametrize("seed", (None, 4))
def test_audit_chains_match_schreier_sims(name, seed):
    """fibre_action's known-order chain, on the vertices and the fibres
    with base (F*, a, F - {a}), against the deterministic
    Schreier-Sims on the same generators and base hint: the same orders
    and hinted base, and the same membership in every hinted stabilizer,
    for elements of G (mapped by the action written out here), for
    elements of each Schreier-Sims stabilizer and for random permutations
    of the domain, which are mostly non-members."""
    base = ORACLE_COVERS[name]()
    g = base if seed is None else relabelled(base, seed)
    aut = automorphism_group(g)
    fa = fibre_action(g, aut)
    chain, extend = fa.chain, extended_action(g)
    fibre = g.fibres[g.fibre_of[0]]
    hint = chain._base_hint
    assert hint == (g.v + g.fibre_of[0], 0, *(x for x in fibre if x != 0))
    assert chain.generators == [extend(p) for p in aut.generators]
    rng = random.Random(23)
    draws = aut.random_elements(24)
    slow = PermGroup(chain.generators, chain.degree, base_hint=hint)
    assert chain.order() == aut.order() == slow.order()
    assert chain.base[:len(hint)] == list(hint) == slow.base[:len(hint)]
    members = [extend(next(draws)) for _ in range(10)]
    others = [Permutation(rng.sample(range(chain.degree), chain.degree))
              for _ in range(10)]
    assert all(x in chain for x in members)
    for k in range(len(hint) + 1):
        fast, sub = chain.stabilizer(k), slow.stabilizer(k)
        assert fast.order() == sub.order(), (name, k)
        sub_draws = sub.random_elements(25)
        tests = members + others + [next(sub_draws) for _ in range(5)]
        for x in tests:
            assert (x in fast) == (x in sub), (name, k)


def proper_kernel_subgroups():
    """Groups H whose H ∩ K is a proper subgroup of K: every subgroup of
    the cube's Aut with H ∩ K = 1 (K = Z2), and on TS(4,1) (K = Z2 x Z2)
    each <k, x> with |H ∩ K| = 2, for k the first element of K and x one
    of the first 40 seed-5 draws of Aut commuting with k."""
    g = cube()
    aut = automorphism_group(g)
    for sub in subgroups_of(aut):
        if covering_group(g, sub)[0].order() == 1:
            yield g, sub
    g = thas_somma(4, 1)
    aut = automorphism_group(g)
    k = covering_group(g)[0].generators[0]
    for x in islice(aut.random_elements(5), 40):
        if (x * k).img == (k * x).img:
            sub = PermGroup([k, x], g.v)
            if covering_group(g, sub)[0].order() == 2:
                yield g, sub


def test_sift_forms_no_inverse(monkeypatch):
    """_sift holds the element it strips inverted and strips each level by
    one product on the left, so fibre_action on relabelled TS(8,1),
    membership tests in Aut(TS(4,1)) and rebased call
    Permutation.inverse for no element; a sift that multiplies by t^-1 on
    the right calls it once per level."""
    g = relabelled(thas_somma(8, 1), 1)
    aut = automorphism_group(g)
    aut4 = automorphism_group(thas_somma(4, 1))
    members = list(islice(aut4.random_elements(7), 20))
    swap = Permutation((1, 0) + tuple(range(2, aut4.degree)))
    inverse = Permutation.inverse
    calls = []

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Permutation, "inverse", counting)
    fa = fibre_action(g, aut)
    assert fa.transitive and fa.kernel.order() == 8
    assert all(x in aut4 for x in members) and swap not in aut4
    assert aut4.rebased((5, 3, 1)).order() == aut4.order()
    assert calls == []


def test_fibre_action_chain_on_vertices_and_fibres(corpus):
    """fibre_action's chain acts on the vertices and the fibres alone:
    degree v + n, a base that starts (F*, a, F - {a}), generators the
    group's on that domain, and the group's order, on every corpus cover
    under relabelling seeds 0-3 and on groups whose G ∩ K is a proper
    subgroup of K."""
    cases = [(relabelled(g, seed), None) for g in corpus.values()
             for seed in range(4)]
    cases += list(proper_kernel_subgroups())
    assert sum(1 for _, sub in cases if sub is not None) > 20
    for g, group in cases:
        group = group or automorphism_group(g)
        chain = fibre_action(g, group).chain
        fibre = g.fibres[g.fibre_of[0]]
        hint = [g.v + g.fibre_of[0], 0, *(x for x in fibre if x != 0)]
        assert chain.degree == g.v + g.n
        assert chain.base[:len(hint)] == hint
        assert chain.generators == list(map(extended_action(g),
                                            group.generators))
        assert chain.order() == group.order()


def test_structure_audit_tail_membership(corpus, monkeypatch):
    """structure_audit decides t^-1 s t in H, for H a tail of fa.chain, by
    the points H's tail fixes.  For every (t, H) it tries on the corpus
    under relabelling seeds 0-3, each conjugate of a generator s is formed
    here: fixing H.tail_points, the prefix of the chain's base, agrees
    with membership by a sift, and the audit's verdict is that of the
    sifts."""
    from coverlab import groupops
    normalizes, calls = groupops._normalizes, []

    def checked(t, sub):
        got = normalizes(t, sub)
        conjugates = [t.inverse() * s * t for s in sub.generators]
        for c in conjugates:
            assert all(c[x] == x for x in sub.tail_points) == (c in sub)
        assert got == all(c in sub for c in conjugates)
        calls.append(got)
        return got
    monkeypatch.setattr(groupops, "_normalizes", checked)
    for base in corpus.values():
        for seed in range(4):
            g = relabelled(base, seed)
            fa = fibre_action(g, automorphism_group(g))
            assert fa.m.tail_points == tuple(fa.chain.base[:1])
            assert fa.g_a.tail_points == tuple(fa.chain.base[:2])
            structure_audit(g, fa)
    assert len(calls) > 100 and True in calls and False in calls


def seeded_involutions(aut, seed: int, draws: int):
    """x^(o/2) for each of the first draws seeded draws x of even order o."""
    for x in islice(aut.random_elements(seed), draws):
        o = x.order()
        if o % 2 == 0:
            y = x
            for _ in range(o // 2 - 1):
                y = y * x
            yield y


def test_sending_lies_in_g_and_sends_a_to_b(corpus, auts):
    """fa.sending(b) is an element of G, on the chain's points and on the
    vertices, sending a = 0 to b, for every b in a^G, and None for every
    other vertex: on the corpus covers under Aut, on TS(3,1) under
    imprimitive_rank3_group(3) and under Aut's stabilizer of vertex 0,
    where a^G = {0}, and on the cube under its subgroups with H ∩ K = 1."""
    cases = [(g, auts[name]) for name, g in corpus.items()]
    ts31 = corpus["ts31"]
    cases += [(ts31, imprimitive_rank3_group(3)),
              (ts31, auts["ts31"].point_stabilizer(0))]
    cases += [(g, sub) for g, sub in proper_kernel_subgroups()
              if g.v == 8]
    for g, group in cases:
        fa = fibre_action(g, group)
        orbit = set(next(o for o in group.orbits() if 0 in o))
        for b in range(g.v):
            t = fa.sending(b)
            if b not in orbit:
                assert t is None
                continue
            assert t in fa.chain and Permutation(t.img[:g.v]) in group
            assert t[0] == b
    assert len(cases) > 10


def test_involution_audit_matches_pair_loops(corpus, auts):
    """The audit's items and witnesses against involution_witnesses, on
    one involution of every type (involution_types) and on the
    involutions among 40 seed-11 draws of Aut, for each corpus cover, a
    relabelled TS(4,1) and the Gosset cover relabelled by seed 1, whose
    lambda = 16 > mu = 10 puts alpha_1 in the chain's bound."""
    covers = dict(corpus, ts41_relabelled=relabelled(corpus["ts41"], 6),
                  gosset=relabelled(gosset_cover(-1), 1))
    checked, chains = 0, 0
    for name, g in covers.items():
        aut = auts.get(name) or automorphism_group(g)
        types, _ = involution_types(g, fibre_action(g, aut))
        for p in [x for _, x in types] + list(seeded_involutions(aut, 11, 40)):
            got = [(i.item, i.witness) for i in involution_audit(g, p)]
            assert got == involution_witnesses(g, p), name
            checked += 1
            chains += any(i == "case-l>1-chain" and "f" in w for i, w in got)
    assert checked > 80 and chains > 5


# -- the voltage matrix W of an abelian cover ---------------------------------

def _coset_table(add, u_rows):
    """The cosets a + U of a subgroup U of K, given by its rows u_rows in
    K's addition table add, numbered by least row, and the addition table
    of K/U on those numbers: the identity's coset, holding row 0, is 0."""
    least = np.array([min(add[a, u] for u in u_rows) for a in range(len(add))])
    reps, coset = np.unique(least, return_inverse=True)
    return coset, coset[add[np.ix_(reps, reps)]]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ETF_CORPUS)
def test_kernel_voltages_give_the_cover(name, seed):
    """W = kernel_voltages(g), over K's addition table as the test reads
    it off K's image rows: the map (i, a) -> a(b_i) carries
    cover_from_voltages(W, add) onto g, adjacency for adjacency; W is skew,
    W_ji = -W_ij, with a zero diagonal; and the cover condition counted
    on W gives g's (lambda, mu)."""
    g = named_cover(name, seed)
    images = kernel_images(g)
    w = kernel_voltages(g)
    _, add = kernel_positions(g, images)
    assert w.shape == (g.n, g.n) and not w.flags.writeable
    label = images[:, [f[0] for f in g.fibres]].T.ravel()
    assert sorted(label.tolist()) == list(range(g.v))
    volt = cover_from_voltages(w, add)
    assert np.array_equal(g.adjacency_matrix()[np.ix_(label, label)],
                          volt.adjacency_matrix())
    assert (add[w, w.T] == 0).all() and not np.diag(w).any()
    p = params_of(g)
    assert voltage_counts(w, add) == (p.lam, p.mu)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_kernel_voltages_of_ts_q1_are_the_symplectic_form(q):
    """On TS(q, 1), (u, a) labelled by its index in GF(q)^3, K's row k adds
    k(0) to a: W read as field elements is B(u_i, u_j), the matrix the
    constructor's docstring states, computed from the field tables."""
    g = thas_somma(q, 1)
    assert np.array_equal(kernel_images(g)[:, 0][kernel_voltages(g)],
                          symplectic_voltages(q))


def test_kernel_voltages_are_built_once_when_first_read(monkeypatch,
                                                        tmp_path):
    """covering_group and analyze --audits build no W; the first
    character matrix builds it, and every later one, with K supplied or
    not, reads the same read-only record."""
    from coverlab import groupops
    from coverlab.cli import main
    builds = []
    build = groupops._voltages
    monkeypatch.setattr(groupops, "_voltages",
                        lambda *a: builds.append(a[0]) or build(*a))
    g = thas_somma(4, 1)
    kernel, _ = covering_group(g)
    path = tmp_path / "ts41.json"
    path.write_text(g.to_json_str())
    assert main(["analyze", "--audits", str(path)]) == 0
    assert builds == []
    for chi in all_characters(kernel)[1:]:
        for supplied in (kernel, None):
            character_matrix(g, chi, kernel=supplied)
    w = kernel_voltages(g)
    assert builds == [g] and kernel_voltages(g) is w
    with pytest.raises(ValueError):
        w[0, 1] = 0


def test_kernel_voltages_need_an_abelian_cover(monkeypatch):
    """A cover whose K kernel_info does not find abelian and regular on the
    fibres has no W: kernel_voltages raises ValueError and character_matrix
    FrameError, before any W is built."""
    from coverlab import groupops
    from coverlab.frames import FrameError
    info = groupops.kernel_info
    monkeypatch.setattr(groupops, "kernel_info",
                        lambda *a: {**info(*a), "abelian_cover": False})
    monkeypatch.setattr(groupops, "_voltages", None)
    g = thas_somma(3, 1)
    with pytest.raises(ValueError, match="not abelian"):
        kernel_voltages(g)
    chi = all_characters(covering_group(g)[0])[1]
    with pytest.raises(FrameError, match="not abelian"):
        character_matrix(g, chi)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quotients_are_the_voltage_covers_of_w_mod_u(seed):
    """For every proper nontrivial U <= K of TS(4,1), TS(8,1) and TS(4,2),
    20 subgroups, the map sending the U-orbit of a(b_i) to (i, a + U) is an
    isomorphism from quotient_cover(g, U) onto the voltage cover of W mod U
    over K/U."""
    count = 0
    for name in ("ts41", "ts81", "ts42"):
        g = named_cover(name, seed)
        images = kernel_images(g)
        where, add = kernel_positions(g, images)
        w = kernel_voltages(g)
        kernel, _ = covering_group(g)
        for sub in subgroups_of(kernel):
            if not 1 < sub.order() < g.r:
                continue
            count += 1
            elements = [p.img for p in sub.elements()]
            coset, add_q = _coset_table(add, [where[u[0]] for u in elements])
            volt = cover_from_voltages(coset[w], add_q)
            vertex = orbit_numbers(elements, g.v)
            r = len(add_q)
            label = np.empty(volt.v, dtype=int)
            for i, f in enumerate(g.fibres):
                for a, x in enumerate(images[:, f[0]].tolist()):
                    label[i * r + coset[a]] = vertex[x]
            quot = quotient_cover(g, sub)
            assert sorted(label.tolist()) == list(range(quot.v))
            assert [quot.fibre_of[x] for x in label] == list(
                np.repeat(np.arange(g.n), r))
            quot_a = quot.adjacency_matrix()[np.ix_(label, label)]
            assert np.array_equal(quot_a, volt.adjacency_matrix()), name
    assert count == 20
