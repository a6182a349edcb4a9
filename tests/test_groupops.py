"""Actions, quotients, displacement and the group-identity audits."""
import random
from fractions import Fraction
from itertools import islice

import pytest

from coverlab import (arc_orbit_count, automorphism_group, covering_group,
                      cube, displacement_profile, fibre_action, hexagon,
                      icosahedron, quotient_cover, structure_audit,
                      subdegree_identity_check, subgroups_of, thas_somma,
                      verify_cover)
from coverlab.autgroup import automorphism_generators
from coverlab.exact import QuadExt
from coverlab.graphcore import GraphStructureError, params_of
from coverlab.groupops import (INVOLUTION_DRAWS, QuotientError,
                               _audit_chains, _fibre_fixing_automorphisms,
                               involution_audit, involution_types,
                               is_cover_automorphism)
from coverlab.perms import PermGroup, Permutation, closure_elements
from conftest import matching_swapped, relabelled, symplectic_witnesses


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
    gens = automorphism_generators(g.adj, colors=list(g.fibre_of))
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
            got = {p.img for p in _fibre_fixing_automorphisms(sw)}
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


def rank3_subgroup_ts31():
    """The order-108 subgroup of Aut(TS(3,1)) of rank 3 on the fibres."""
    translation, shift, linear = symplectic_witnesses(3)
    return PermGroup([translation((1, 0)), translation((0, 1)), shift(1),
                      linear([[0, -1], [1, 0]])])


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
    g = thas_somma(4, 1)
    kernel, _ = covering_group(g)
    subs = [u for u in subgroups_of(kernel) if u.order() < g.r]
    quotients = [quotient_cover(g, u) for u in subs]
    assert len(subs) == 4  # trivial and the three of order 2
    assert sum(h is g for h in verify_calls) <= 1
    assert [h for h in verify_calls if h is not g] == quotients


def test_covering_group_semiregular(corpus, auts):
    """K acts semiregularly on vertices; |K| = r on these abelian covers."""
    for name, g in corpus.items():
        kernel, info = covering_group(g, auts[name])
        assert g.r % info["order"] == 0 and info["order"] == g.r
        assert all(len(o) == info["order"] for o in kernel.orbits())


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
    edge of g between two U-orbits, orbits numbered by least element."""
    g = thas_somma(q, 1)
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
        fibres = sorted(tuple(sorted({of[x] for x in f})) for f in g.fibres)
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
        assert any(is_cover_automorphism(g, p) for p in perms)
        assert is_cover_automorphism(g, list(range(g.v + 1))) is False


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
    c = corpus["cube"]
    swap = Permutation([((u >> 1) & 1) << 2 | ((u >> 2) & 1) << 1 | (u & 1)
                        for u in range(8)])
    items = {i.item: i for i in involution_audit(c, swap)}
    assert items["constant-f"].witness == {"f": 2, "l": 2}
    assert items["size-lf"].status == "pass"
    assert items["regular-degree-l-1"].status == "pass"
    assert items["alpha3"].status == "pass"
    assert items["alpha3"].witness["(r-f)l"] == 0


def test_involution_audit_hexagon_reflection(corpus):
    g = corpus["hexagon"]
    refl = Permutation([0, 5, 4, 3, 2, 1])  # fixes 0 and 3, one fibre
    items = {i.item: i for i in involution_audit(g, refl)}
    assert items["constant-f"].witness == {"f": 2, "l": 1}
    assert items["case-l=1"].status == "pass"
    assert items["case-l=1-t-even"].status == "pass"  # t = 2
    # t is read off params_of(g), derive_params' QuadExt tau = -2
    assert type(params_of(g).tau) is QuadExt
    assert items["case-l=1-t-even"].witness == {"t": 2}


def test_involution_audit_fixed_point_free(corpus):
    g = corpus["cube"]
    anti = Permutation([7 - u for u in range(8)])
    items = involution_audit(g, anti)
    assert items[0].status == "inapplicable"


def test_involution_audit_all_involutions_all_covers(corpus, auts):
    """Acceptance property: the universal identities hold for every
    involution of every corpus cover."""
    universal = {"constant-f", "size-lf", "regular-degree-l-1", "alpha3",
                 "alpha1+alpha2", "outside-neighbours<=l"}
    for name, g in corpus.items():
        aut = auts[name]
        count = 0
        for p in aut.elements(limit=30_000):
            if p.order() != 2:
                continue
            count += 1
            for item in involution_audit(g, p):
                if item.item in universal:
                    assert item.status == "pass", (name, item)
        assert count > 0, name


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


def test_involution_types_match_an_element_scan(corpus, auts):
    """On every corpus cover (|Aut| <= 25 000) the types found by the draws
    are the displacement profiles of all involutions of Aut, found by
    scanning every element, and each type comes with an involution of Aut
    of that type."""
    for name, g in corpus.items():
        aut = auts[name]
        assert aut.order() <= 25_000
        scanned = set()
        for p in aut.elements():
            img = p.img
            if (not p.is_identity()
                    and all(img[y] == x for x, y in enumerate(img))):
                scanned.add(displacement_profile(g, p))
        types, draws = involution_types(g, aut)
        assert [kind for kind, _ in types] == sorted(scanned), name
        assert draws <= INVOLUTION_DRAWS
        for kind, x in types:
            assert x.order() == 2 and x in aut
            assert displacement_profile(g, x) == kind


@pytest.fixture(scope="module")
def ts22_seed2():
    """TS(2,2) relabelled by seed 2, its Aut, and the displacement types of
    all its involutions, found by scanning the 23 040 elements."""
    g = relabelled(thas_somma(2, 2), 2)
    aut = automorphism_group(g)
    scanned = {displacement_profile(g, Permutation(img))
               for img in closure_elements(aut.generators, g.v)
               if img != tuple(range(g.v))
               and all(img[y] == x for x, y in enumerate(img))}
    return g, aut, scanned


def test_ts22_has_ten_involution_types(ts22_seed2):
    g, aut, scanned = ts22_seed2
    assert aut.order() == 23_040 and len(scanned) == 10


@pytest.mark.xfail(strict=True, reason="two of TS(2,2)'s ten involution "
                   "types are drawn with probability 1/128 each, and on "
                   "this labelling the draws stop after 254 with 9 types")
def test_involution_types_find_rare_types(ts22_seed2):
    g, aut, scanned = ts22_seed2
    types, _ = involution_types(g, aut)
    assert [kind for kind, _ in types] == sorted(scanned)


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
    subdegrees and arc_orbit_count's count against scans of H's elements.
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


def test_structure_audit_can_fail(corpus, auts, monkeypatch):
    """G_a put in place of C = G_F must fail the C = C_G(K) meet G_a item:
    on TS(3,1), |G_a| = 48 while |C| = |C_G(K) meet G_a| = 24.  C is the
    tail of the audit's chain on the vertices after r points; the tail
    after one point, G_a, is read instead."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    stabilizer = PermGroup.stabilizer
    monkeypatch.setattr(
        PermGroup, "stabilizer",
        lambda self, k: stabilizer(self, 1 if self.degree == g.v else k))
    by_name = {i.item: i for i in structure_audit(g, fa)}
    assert by_name["C=CG(K)^Ga"].status == "fail"
    assert by_name["C=CG(K)^Ga"].witness == {"|C|": 48,
                                              "|CG(K) meet Ga|": 24}


def test_structure_audit_fails_with_ga_for_m(corpus, auts, monkeypatch):
    """G_a put in place of M = G_{F} must fail |G : M| = n on TS(3,1):
    |G| = 1296 = 144 * 9, but 48 * 9 = 432.  M is the tail after one point
    of the audit's chain on the extended domain; G_a of that same action
    is read instead."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    stabilizer = PermGroup.stabilizer

    def ga_for_m(self, k):
        if self.degree == g.v or k != 1:
            return stabilizer(self, k)
        return stabilizer(PermGroup(self.generators, self.degree,
                                    base_hint=(0,)), 1)

    monkeypatch.setattr(PermGroup, "stabilizer", ga_for_m)
    by_name = {i.item: i for i in structure_audit(g, fa)}
    assert by_name["index-G:M-equals-n"].status == "fail"
    assert by_name["index-G:M-equals-n"].witness == {"|G|": 1296, "|M|": 48,
                                                     "n": 9}


def record_chain_builds(monkeypatch):
    """Lists of the groups Schreier-Sims builds a chain for and of the
    degrees of the chains from_order builds, from now on."""
    builds, known_order = [], []
    build, from_order = PermGroup._build_chain, PermGroup.from_order.__func__
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    monkeypatch.setattr(PermGroup, "from_order", classmethod(
        lambda cls, gens, degree, *args, **kw: known_order.append(degree)
        or from_order(cls, gens, degree, *args, **kw)))
    return builds, known_order


def test_structure_audit_builds_one_chain(corpus, auts, monkeypatch):
    """With fibre_action's report built, which holds K with its chain and
    G's chain on base (a, F - {a}), the audit runs no Schreier-Sims and
    builds one chain, on the extended domain, from |G| by known-order
    sifting; G_a, C and the transversal are read off the report."""
    g, aut = corpus["ts31"], auts["ts31"]
    fa = fibre_action(g, aut)
    builds, known_order = record_chain_builds(monkeypatch)
    items = structure_audit(g, fa)
    assert all(i.status == "pass" for i in items)
    assert len(builds) == 0
    assert known_order == [g.v + g.n + g.r - 1]


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


def test_non_automorphism_groups_rejected(corpus):
    g = corpus["ts31"]
    bogus = PermGroup([Permutation([1, 0] + list(range(2, g.v)))], g.v)
    assert not is_cover_automorphism(g, bogus.generators[0])
    with pytest.raises(ValueError, match="not a graph automorphism"):
        fibre_action(g, bogus)
    with pytest.raises(ValueError, match="not a graph automorphism"):
        covering_group(g, bogus)


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
@pytest.mark.parametrize("seed", (None, 4))
def test_audit_chains_match_schreier_sims(name, seed):
    """structure_audit's known-order chains, fibre_action's chain 1 from
    its report and _audit_chains' chain 2, against the deterministic
    Schreier-Sims on the same generators and base hint: the same orders
    and hinted base, and the same membership in every hinted stabilizer,
    for elements of G (mapped by extend for the second chain), for
    elements of each Schreier-Sims stabilizer and for random permutations
    of the domain, which are mostly non-members."""
    base = ORACLE_COVERS[name]()
    g = base if seed is None else relabelled(base, seed)
    aut = automorphism_group(g)
    fa = fibre_action(g, aut)
    chain1 = fa.chain
    chain2, extend = _audit_chains(g, aut, fa.kernel)
    rng = random.Random(23)
    draws = aut.random_elements(24)
    for chain, image in ((chain1, lambda p: p), (chain2, extend)):
        hint = chain._base_hint
        slow = PermGroup(chain.generators, chain.degree, base_hint=hint)
        assert chain.order() == aut.order() == slow.order()
        assert chain.base[:len(hint)] == list(hint) == slow.base[:len(hint)]
        members = [image(next(draws)) for _ in range(10)]
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


def test_involution_audit_matches_pair_loops(corpus, auts):
    """The neighbour counts read off the bit rows against has_edge pair
    loops, for every involution with fixed points in the first 2000
    elements of each corpus cover and a relabelled TS(4,1): the fixed
    subgraph's degrees, the most fixed neighbours of an outside vertex,
    the clique case and |X|, the outside vertices with a fixed neighbour."""
    covers = dict(corpus, ts41_relabelled=relabelled(corpus["ts41"], 6))
    checked = 0
    for name, g in covers.items():
        aut = auts.get(name) or automorphism_group(g)
        for p in islice(aut.elements(), 2000):
            if p.order() != 2 or not p.fixed_points():
                continue
            fixed = p.fixed_points()
            items = {i.item: i for i in involution_audit(g, p)}
            if "regular-degree-l-1" not in items:
                continue
            checked += 1
            degs = sorted({sum(1 for w in fixed if g.has_edge(u, w))
                           for u in fixed})
            assert items["regular-degree-l-1"].witness["degrees"] == degs
            worst = max(sum(1 for w in fixed if g.has_edge(u, w))
                        for u in range(g.v) if u not in fixed)
            assert items["outside-neighbours<=l"].witness["max_outside"] \
                == worst
            if "case-f=1-clique" in items:
                clique = all(g.has_edge(u, w) for u in fixed for w in fixed
                             if u != w)
                assert (items["case-f=1-clique"].status == "pass") == clique
            chain = items.get("case-l>1-chain")
            if chain is not None and chain.status != "inapplicable":
                xset = [u for u in range(g.v) if u not in fixed
                        and any(g.has_edge(u, w) for w in fixed)]
                l = items["constant-f"].witness["l"]
                assert chain.witness["|X|/(n-l)"] == \
                    str(Fraction(len(xset), g.n - l))
    assert checked > 50
