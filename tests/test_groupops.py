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
from coverlab.graphcore import GraphStructureError
from coverlab.groupops import (QuotientError, _audit_chains,
                               _fibre_fixing_automorphisms, involution_audit,
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
    groups = {name: (corpus[name], auts[name])
              for name in ("hexagon", "cube", "ts31", "ts41")}
    ts22 = thas_somma(2, 2)
    groups["ts22"] = (ts22, automorphism_group(ts22))
    for name, (g, aut) in groups.items():
        items = structure_audit(g, aut)
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
    items = structure_audit(corpus["ts31"], auts["ts31"])
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
        wit = {i.item: i.witness for i in structure_audit(g, aut)}
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
    stabilizer = PermGroup.stabilizer
    monkeypatch.setattr(
        PermGroup, "stabilizer",
        lambda self, k: stabilizer(self, 1 if self.degree == g.v else k))
    by_name = {i.item: i for i in structure_audit(g, aut)}
    assert by_name["C=CG(K)^Ga"].status == "fail"
    assert by_name["C=CG(K)^Ga"].witness == {"|C|": 48,
                                              "|CG(K) meet Ga|": 24}


def test_structure_audit_fails_with_ga_for_m(corpus, auts, monkeypatch):
    """G_a put in place of M = G_{F} must fail |G : M| = n on TS(3,1):
    |G| = 1296 = 144 * 9, but 48 * 9 = 432.  M is the tail after one point
    of the audit's chain on the extended domain; G_a of that same action
    is read instead."""
    g, aut = corpus["ts31"], auts["ts31"]
    stabilizer = PermGroup.stabilizer

    def ga_for_m(self, k):
        if self.degree == g.v or k != 1:
            return stabilizer(self, k)
        return stabilizer(PermGroup(self.generators, self.degree,
                                    base_hint=(0,)), 1)

    monkeypatch.setattr(PermGroup, "stabilizer", ga_for_m)
    by_name = {i.item: i for i in structure_audit(g, aut)}
    assert by_name["index-G:M-equals-n"].status == "fail"
    assert by_name["index-G:M-equals-n"].witness == {"|G|": 1296, "|M|": 48,
                                                     "n": 9}


def test_structure_audit_builds_two_chains(corpus, auts, monkeypatch):
    """With G's chain built, the audit runs Schreier-Sims once, for K's
    chain: its two chains of G, whose tails give every subgroup, are built
    from |G| by known-order sifting."""
    g, aut = corpus["ts31"], auts["ts31"]
    aut.order()
    builds = []
    build = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    items = structure_audit(g, aut)
    assert all(i.status == "pass" for i in items)
    assert len(builds) == 1


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


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
@pytest.mark.parametrize("seed", (None, 4))
def test_audit_chains_match_schreier_sims(name, seed):
    """structure_audit's known-order chains against the deterministic
    Schreier-Sims on the same generators and base hint: the same orders
    and hinted base, and the same membership in every hinted stabilizer,
    for elements of G (mapped by extend for the second chain), for
    elements of each Schreier-Sims stabilizer and for random permutations
    of the domain, which are mostly non-members."""
    base = ORACLE_COVERS[name]()
    g = base if seed is None else relabelled(base, seed)
    aut = automorphism_group(g)
    kernel, _ = covering_group(g, aut)
    chain1, chain2, extend = _audit_chains(g, aut, kernel)
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
