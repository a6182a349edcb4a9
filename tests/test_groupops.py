"""Actions, quotients, displacement and the group-identity audits."""
import pytest

from coverlab import (arc_orbit_count, automorphism_group, covering_group,
                      cube, displacement_profile, fibre_action, hexagon,
                      icosahedron, quotient_cover, structure_audit,
                      subdegree_identity_check, subgroups_of, thas_somma,
                      verify_cover)
from coverlab.autgroup import automorphism_generators
from coverlab.graphcore import GraphStructureError
from coverlab.groupops import (QuotientError, _fibre_fixing_automorphisms,
                               involution_audit, is_cover_automorphism)
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
        arcs = arc_orbit_count(g, auts[name])
        assert arcs["rank_identity_applicable"], name
        assert arcs["arc_orbits"] == fa.rank - 1, name


def test_rank_identity_on_rank3_subgroup():
    g = thas_somma(3, 1)
    sub = rank3_subgroup_ts31()
    assert sub.order() == 108
    fa = fibre_action(g, sub)
    assert fa.rank == 3 and fa.subdegrees == (1, 4, 4)
    arcs = arc_orbit_count(g, sub)
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
        arcs = arc_orbit_count(q, aq)
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


def test_subdegree_identities_rank3():
    g = thas_somma(3, 1)
    sub = rank3_subgroup_ts31()
    res = subdegree_identity_check(g, sub)
    assert res["applicable"]
    assert (res["k1"], res["k2"]) == (4, 4)
    assert res["eq_lambda_holds"]
    # lambda1 = lambda2 = lambda = 1: the identity-case of both sides zero
    assert res["lambda1"] == res["lambda2"] == 1
    assert res["mu_checks"] and all(c["status"] == "pass"
                                    for c in res["mu_checks"])


def test_subdegree_inapplicable_rank2(corpus, auts):
    res = subdegree_identity_check(corpus["ts31"], auts["ts31"])
    assert not res["applicable"]


def test_structure_audit(corpus, auts):
    for name in ("hexagon", "cube", "ts31"):
        items = structure_audit(corpus[name], auts[name])
        by_name = {i.item: i for i in items}
        assert by_name["index-G:M-equals-n"].status == "pass", name
        assert by_name["M=K:Ga"].status == "pass", name
        assert by_name["C=CG(K)^Ga"].status == "pass", name
        assert by_name["Fix(Ga)=index-in-normalizer-divides-nr"].status == \
            "pass", name
        assert by_name["FixSigma(M)=index-in-normalizer-divides-n"].status == \
            "pass", name
    # spot value: |G:M| = 9 = n for the 27-vertex cover
    items = structure_audit(corpus["ts31"], auts["ts31"])
    g_to_m = next(i for i in items if i.item == "index-G:M-equals-n")
    assert g_to_m.witness == {"|G|": 1296, "|M|": 144, "n": 9}


def test_non_automorphism_groups_rejected(corpus):
    g = corpus["ts31"]
    bogus = PermGroup([Permutation([1, 0] + list(range(2, g.v)))], g.v)
    assert not is_cover_automorphism(g, bogus.generators[0])
    with pytest.raises(ValueError):
        fibre_action(g, bogus)
    with pytest.raises(ValueError):
        subdegree_identity_check(g, bogus)
    with pytest.raises(ValueError, match="not a graph automorphism"):
        covering_group(g, bogus)
    with pytest.raises(ValueError, match="not a graph automorphism"):
        arc_orbit_count(g, bogus)
