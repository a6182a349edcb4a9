"""Permutation engine: stabilizer chains vs naive closure, automorphisms."""
from itertools import permutations as all_perms
from types import GeneratorType

import numpy as np
import pytest

from coverlab import (automorphism_group, covers_isomorphic, cube, hexagon,
                      icosahedron, subgroups_of, thas_somma)
from coverlab.graphcore import VERTEX_BOUND, CoverGraph
from coverlab import perms
from coverlab.groupops import covering_group
from coverlab.perms import PermGroup, Permutation
from coverlab.autgroup import SizeBoundExceeded, automorphism_generators
from conftest import closure_elements, matching_swapped, relabelled


def test_permutation_basics():
    p = Permutation([1, 2, 0, 3])
    q = Permutation([0, 1, 3, 2])
    assert (p * q)[0] == q[p[0]] == 1
    assert p.inverse() * p == Permutation.identity(4)
    assert p.order() == 3 and q.order() == 2
    assert p.cycles() == [(0, 1, 2)]
    assert q.fixed_points() == [0, 1]


def test_image_that_is_no_permutation():
    """The constructor takes any image; cycles and order raise ValueError
    on one that is no permutation of 0..n-1, naming a point with two
    preimages or an image out of range, and repr shows the raw image."""
    for img, point in (([1, 1, 0], "point 1 "), ([0, 0], "point 0 "),
                       ([1, 2, 2], "point 2 "), ([2, 0, 3], "image 3 "),
                       ([-1, 0, 1], "image -1 ")):
        p = Permutation(img)
        for call in (p.cycles, p.order):
            with pytest.raises(ValueError, match=point):
                call()
        assert repr(p) == f"Permutation({img})"
    assert repr(Permutation([1, 0, 2])) == "Permutation((0, 1))"
    assert repr(Permutation([0, 1])) == "Permutation(id)"


def test_membership_of_an_image_that_is_no_permutation():
    """in is False for every image that is no permutation of the points,
    whether or not it misses a base point, and for a list of another
    length."""
    group = automorphism_group(hexagon())
    assert [0, 1, 2, 3, 4, 5] in group
    for img in ([1, 1, 2, 3, 4, 5], [-6, 1, 2, 3, 4, 5], [0, 0, 1, 2, 3, 4],
                [6, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4]):
        assert img not in group, img
        assert Permutation(img) not in group, img


def test_stabilizer_chain_order_matches_closure():
    cyc = Permutation([1, 2, 3, 4, 0])
    flip = Permutation([0, 4, 3, 2, 1])
    d5 = PermGroup([cyc, flip])
    assert d5.order() == 10 == len(closure_elements([cyc, flip], 5))

    s4_gens = [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])]
    s4 = PermGroup(s4_gens)
    assert s4.order() == 24 == len(closure_elements(s4_gens, 4))

    trivial = PermGroup([], degree=5)
    assert trivial.order() == 1
    assert list(g.img for g in trivial.elements()) == [(0, 1, 2, 3, 4)]


def test_membership_and_elements():
    g = PermGroup([Permutation([1, 2, 0]), Permutation([1, 0, 2])])  # S3
    assert g.order() == 6
    els = {p.img for p in g.elements()}
    assert els == set(all_perms(range(3)))
    assert Permutation([2, 1, 0]) in g
    assert Permutation([0, 1, 2, 3]) not in g  # wrong degree


def random_group(rng, n_max: int = 8) -> PermGroup:
    n = rng.randint(2, n_max)
    gens = []
    for _ in range(rng.randint(1, 3)):
        img = list(range(n))
        rng.shuffle(img)
        gens.append(Permutation(img))
    return PermGroup(gens, n)


def test_elements_bounds_the_scan_not_the_order():
    """Below the limit: every element once, as the closure finds them.
    Above it: the first limit elements of the full sequence are yielded,
    and ValueError comes when element limit + 1 is asked for."""
    import random
    rng = random.Random(5)
    limit = 30
    for _ in range(60):
        grp = random_group(rng, n_max=6)
        full = list(grp.elements(grp.order()))
        assert len(full) == grp.order() == len(set(full))
        assert {p.img for p in full} == closure_elements(grp.generators,
                                                         grp.degree)
        if grp.order() <= limit:
            assert list(grp.elements(limit)) == full
            continue
        seen = []
        with pytest.raises(ValueError, match=f"more than {limit}"):
            for p in grp.elements(limit):
                seen.append(p)
        assert seen == full[:limit]


def test_transversal_sends_base_point_over_its_orbit():
    import random
    rng = random.Random(8)
    for _ in range(40):
        grp = random_group(rng)
        point = rng.randrange(grp.degree)
        chain = PermGroup(grp.generators, grp.degree, base_hint=(point,))
        moves = chain.transversal()
        assert [sorted(moves)] == [o for o in grp.orbits() if point in o]
        assert all(t[point] == b and t in grp for b, t in moves.items())


def test_point_stabilizer_and_orbits():
    cyc = Permutation([1, 2, 3, 4, 5, 0])
    flip = Permutation([0, 5, 4, 3, 2, 1])
    d6 = PermGroup([cyc, flip])
    assert d6.order() == 12
    stab = d6.point_stabilizer(0)
    assert stab.order() == 2
    assert d6.orbits() == [list(range(6))]
    assert stab.orbits() == [[0], [1, 5], [2, 4], [3]]


def test_pointwise_stabilizer():
    s4 = PermGroup([Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
    fix01 = s4.pointwise_stabilizer([0, 1])
    assert fix01.order() == 2  # only the transposition (2 3)


def test_chain_order_equals_closure_for_corpus_groups():
    for g in (hexagon(), cube(), icosahedron(), thas_somma(3, 1)):
        aut = automorphism_group(g)
        if aut.order() <= 10_000:
            assert aut.order() == len(closure_elements(aut.generators, g.v))


def test_aut_hexagon_cube_orders():
    """The dihedral group of the hexagon, and the full symmetry groups
    (rotations times the central inversion) of the cube and icosahedron,
    also on a seeded relabelling."""
    for build, order in ((hexagon, 12), (cube, 48), (icosahedron, 120)):
        assert automorphism_group(build()).order() == order
        assert automorphism_group(relabelled(build(), 5)).order() == order


def test_aut_cube_brute_force_oracle():
    """All 8! vertex maps, filtered by edge preservation."""
    g = cube()
    edges = set(g.edges)

    def is_auto(img):
        return all(tuple(sorted((img[u], img[w]))) in edges for u, w in edges)

    brute = [img for img in all_perms(range(8)) if is_auto(img)]
    aut = automorphism_group(g)
    assert aut.order() == len(brute) == 48
    assert all(Permutation(img) in aut for img in brute)


def test_aut_hexagon_brute_force_oracle():
    g = hexagon()
    edges = set(g.edges)
    brute = [img for img in all_perms(range(6))
             if all(tuple(sorted((img[u], img[w]))) in edges
                    for u, w in edges)]
    aut = automorphism_group(g)
    assert aut.order() == len(brute) == 12
    assert all(Permutation(img) in aut for img in brute)


def test_aut_single_edge():
    gens = automorphism_generators(np.array([[0, 1], [1, 0]]))
    assert PermGroup(gens, 2).order() == 2


def test_aut_ts31_contains_witnesses():
    from conftest import symplectic_witnesses
    translation, shift, linear = symplectic_witnesses(3)
    g = thas_somma(3, 1)
    aut = automorphism_group(g)
    assert aut.order() == 1296
    for w in ((1, 0), (0, 1), (1, 2)):
        assert translation(w) in aut
    assert shift(1) in aut
    for mat in ([[0, -1], [1, 0]], [[1, 1], [0, 1]], [[2, 0], [0, 1]]):
        assert linear(mat) in aut


def test_aut_respects_colors():
    # fibre colouring restricts the hexagon group to fibre-fixing maps
    g = hexagon()
    gens = automorphism_generators(g.adjacency_matrix(),
                                   colors=list(g.fibre_of))
    assert PermGroup(gens, 6).order() == 2  # identity and the antipodal map


def test_subgroups_of_small_groups():
    z6 = PermGroup([Permutation([1, 2, 3, 4, 5, 0])])
    orders = sorted(s.order() for s in subgroups_of(z6))
    assert orders == [1, 2, 3, 6]
    v4 = PermGroup([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    orders = sorted(s.order() for s in subgroups_of(v4))
    assert orders == [1, 2, 2, 2, 4]


def test_subgroups_of_refuses_a_group_past_its_bound():
    """Past perms.MAX_SUBGROUPS_ORDER, subgroups_of raises
    SizeBoundExceeded, a ValueError that the CLI reports as a size limit
    (exit 3, not the bad-input exit 2), with
    the order and the bound in the message: S_8 has order 40320."""
    assert perms.MAX_SUBGROUPS_ORDER == 10_000
    s8 = PermGroup([Permutation([1, 0, 2, 3, 4, 5, 6, 7]),
                    Permutation([1, 2, 3, 4, 5, 6, 7, 0])])
    with pytest.raises(SizeBoundExceeded) as err:
        subgroups_of(s8)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == "group order 40320 exceeds bound 10000"


def subgroups_by_closure(group):
    """The closure-extension enumeration over tuples, each closure a BFS of
    closure_elements: every subgroup's first-found generators (identity
    first) and order, in (order, sorted element tuples) order."""
    elements = sorted(g.img for g in group.elements())
    ident = tuple(range(group.degree))
    known = {frozenset([ident]): (ident,)}
    frontier = [frozenset([ident])]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in elements:
                if e in sub:
                    continue
                gens = known[sub] + (e,)
                closed = frozenset(closure_elements(gens, group.degree))
                if closed not in known:
                    known[closed] = gens
                    nxt.append(closed)
        frontier = nxt
    return [([g for g in known[s] if g != ident], len(s))
            for s in sorted(known, key=lambda s: (len(s), sorted(s)))]


def _quaternion_regular():
    """Q8 acting on itself by right multiplication, quaternions as 4-tuples."""
    def times(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)
    units = [tuple(s * (k == i) for k in range(4))
             for i in range(4) for s in (1, -1)]
    pos = {q: i for i, q in enumerate(units)}
    return PermGroup([[pos[times(q, g)] for q in units]
                      for g in ((0, 1, 0, 0), (0, 0, 1, 0))])


# subgroup counts from the groups' subgroup lattices
SMALL_GROUPS = {
    "S4": (lambda: PermGroup([[1, 2, 3, 0], [1, 0, 2, 3]]), 30),
    "A4": (lambda: PermGroup([[1, 2, 0, 3], [0, 2, 3, 1]]), 10),
    "D4": (lambda: PermGroup([[1, 2, 3, 0], [0, 3, 2, 1]]), 10),
    "Q8": (_quaternion_regular, 6),
    "Z6": (lambda: PermGroup([[1, 2, 3, 4, 5, 0]]), 4),
    "V4": (lambda: PermGroup([[1, 0, 3, 2], [2, 3, 0, 1]]), 5),
    # (Z3)^2 on itself, (a, b) -> 3a + b
    "Z3^2": (lambda: PermGroup([[(3 * (x // 3 + 1) + x % 3) % 9
                                 for x in range(9)],
                                [3 * (x // 3) + (x + 1) % 3
                                 for x in range(9)]]), 6),
    "(Z2)^3 = K(TS(8,1))": (lambda: covering_group(thas_somma(8, 1))[0], 16),
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroups_of_matches_closure_extension(name):
    build, count = SMALL_GROUPS[name]
    group = build()
    got = [([g.img for g in u.generators], u.order())
           for u in subgroups_of(group)]
    assert got == subgroups_by_closure(group)
    assert len(got) == count


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", ["hexagon", "cube", "icosahedron", "ts31",
                                  "ts41"])
def test_subgroups_of_corpus_kernels_match_closure_extension(corpus, name,
                                                             seed):
    g = corpus[name] if seed is None else relabelled(corpus[name], seed)
    k = covering_group(g)[0]
    got = [([p.img for p in u.generators], u.order()) for u in subgroups_of(k)]
    assert got == subgroups_by_closure(k)


def test_subgroups_of_composes_each_product_once(monkeypatch):
    """On K(TS(8,1)) = (Z2)^3, at most |K|^2 = 64 compositions of degree
    512, however they are made: an itemgetter applied to an image tuple, or
    a tuple built from a generator of images.  A closure_elements BFS per
    candidate generating set makes 1 436, elements() included."""
    k = covering_group(thas_somma(8, 1))[0]
    n = k.order()  # the chain is built before counting
    made = []
    real_getter = perms.itemgetter

    def counting_getter(*items):
        get = real_getter(*items)

        def apply(seq):
            out = get(seq)
            if len(items) == k.degree:
                made.append(out)
            return out
        return apply

    def counting_tuple(it=()):
        out = tuple(it)
        if isinstance(it, GeneratorType) and len(out) == k.degree:
            made.append(out)
        return out

    monkeypatch.setattr(perms, "itemgetter", counting_getter)
    monkeypatch.setattr(perms, "tuple", counting_tuple, raising=False)
    assert len(subgroups_of(k)) == 16
    assert 0 < len(made) <= n * n


@pytest.mark.parametrize("name", ["hexagon", "cube", "icosahedron", "ts31",
                                  "ts41"])
def test_covers_isomorphic_relabelled(corpus, name):
    g = corpus[name]
    assert covers_isomorphic(g, relabelled(g, 1))
    assert covers_isomorphic(relabelled(g, 2), relabelled(g, 3))


@pytest.mark.parametrize("name", ["cube", "icosahedron", "ts31"])
def test_covers_isomorphic_rejects_matching_swapped(corpus, name):
    g = corpus[name]
    assert not covers_isomorphic(g, matching_swapped(g))
    assert not covers_isomorphic(relabelled(matching_swapped(g), 4), g)


def test_covers_isomorphic_bad_inputs():
    assert not covers_isomorphic(hexagon(), cube())  # 6 and 8 vertices
    # the hexagon's matching-swapped copy is two disjoint triangles
    two_triangles = matching_swapped(hexagon())
    for pair in ((hexagon(), two_triangles), (two_triangles, hexagon())):
        with pytest.raises(ValueError, match="disconnected"):
            covers_isomorphic(*pair)
    # a union past the search bound raises, never clamped, before the
    # (2v)^2-byte union (16.8 MB) or anything of its size is allocated
    import tracemalloc
    v = VERTEX_BOUND // 2 + 2
    cycle = CoverGraph([[i, i + v // 2] for i in range(v // 2)],
                       [(i, (i + 1) % v) for i in range(v)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded,
                           match=f"{2 * v} vertices exceed bound 4096"):
            covers_isomorphic(cycle, cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * v) ** 2 // 64


def test_aut_search_random_graphs_vs_brute_force():
    """Completeness of the search on arbitrary small graphs."""
    import random
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u, w] = adj[w, u] = True
        edges = set(map(tuple, np.argwhere(adj).tolist()))
        brute = sum(1 for img in all_perms(range(n))
                    if all((img[u], img[w]) in edges for (u, w) in edges))
        gens = automorphism_generators(adj)
        assert PermGroup(gens, n).order() == brute


def test_colored_aut_search_vs_brute_force():
    import random
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u, w] = adj[w, u] = True
        colors = [rng.randint(0, 1) for _ in range(n)]
        edges = set(map(tuple, np.argwhere(adj).tolist()))
        brute = sum(1 for img in all_perms(range(n))
                    if all(colors[img[v]] == colors[v] for v in range(n))
                    and all((img[u], img[w]) in edges for (u, w) in edges))
        gens = automorphism_generators(adj, colors=colors)
        assert PermGroup(gens, n).order() == brute


def test_schreier_sims_random_groups_vs_closure():
    """Orders and membership of the Schreier-Sims chain against the BFS
    closure on random groups of degree <= 8.  A chain that sifted the
    left residue t_y t_x s of each t_x s, t_y the transversal element
    sending the base point to the point t_x s sends to it, in place of the
    Schreier generator t_x s t_y^-1, y = x^s, would miss part of the
    stabilizer on some of these groups, and this test fails on it."""
    import random
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        grp = PermGroup(gens)
        els = closure_elements(gens, n)
        assert grp.order() == len(els)
        for img in sorted(els)[:5]:
            assert Permutation(img) in grp


def test_orbits_and_transitivity_random_groups_vs_closure():
    """orbits() lists the orbits read off every element, each sorted and in
    order of least point.  The trivial group comes first at each degree."""
    import random
    rng = random.Random(5)
    for trial in range(80):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(0 if trial % 8 == 0 else rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        grp = PermGroup(gens, n)
        els = closure_elements(gens, n)
        expected = []
        for x in range(n):
            orb = sorted({e[x] for e in els})
            if orb[0] == x:
                expected.append(orb)
        assert grp.orbits() == expected, gens
        if not gens:
            assert expected == [[x] for x in range(n)]


def test_orbit_labels_are_least_orbit_points(corpus):
    """orbit_labels gives each point the least point of its orbit as the
    element-scan closure reads it, on the random groups of the orbits()
    test above and on Aut of each corpus cover."""
    import random
    rng = random.Random(5)
    cases = []
    for trial in range(80):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(0 if trial % 8 == 0 else rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        cases.append((gens, n))
    for g in corpus.values():
        aut = automorphism_group(g)
        cases.append((aut.generators, aut.degree))
    for gens, n in cases:
        els = closure_elements(gens, n)
        expected = [min(e[x] for e in els) for x in range(n)]
        assert perms.orbit_labels([p.img for p in gens], n) == expected


def test_pointwise_stabilizer_random_vs_brute():
    import random
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        grp = PermGroup(gens)
        pts = rng.sample(range(n), rng.randint(1, 3))
        stab = grp.pointwise_stabilizer(pts)
        elements = closure_elements(gens, n)
        brute = {e for e in elements if all(e[p] == p for p in pts)}
        assert stab.order() == len(brute)
        assert {p.img for p in stab.elements()} == brute
        for e in elements:
            assert (Permutation(e) in stab) == (e in brute)


def test_pointwise_stabilizer_builds_one_chain(monkeypatch):
    """The stabilizer is a tail of the group rebased at its points: a
    group given by bare generators runs Schreier-Sims once, for itself,
    and a group with a chain runs none."""
    import random
    builds = []
    build = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    rng = random.Random(12)
    for _ in range(20):
        grp = random_group(rng)
        pts = rng.sample(range(grp.degree), rng.randint(1, grp.degree - 1))
        builds.clear()
        grp.pointwise_stabilizer(pts).order()
        assert builds == [grp]
        builds.clear()
        grp.pointwise_stabilizer(pts[::-1]).point_stabilizer(0).order()
        assert builds == []


def test_elements_follow_the_transversal_product_order():
    """elements() yields t_L ... t_1 t_0 over the sorted transversals with
    the last level fastest, as the product formula below does, for the
    full group and up to each limit."""
    import random
    from itertools import product
    rng = random.Random(13)
    for _ in range(40):
        grp = random_group(rng, n_max=7)
        transversals = [[lvl.orbit[x] for x in sorted(lvl.orbit)]
                        for lvl in grp._chain()]
        oracle = []
        for combo in product(*transversals):
            g = Permutation.identity(grp.degree)
            for t in reversed(combo):
                g = g * t
            oracle.append(g)
        assert list(grp.elements(len(oracle))) == oracle
        for limit in {0, 1, 7, len(oracle) - 1} & set(range(len(oracle))):
            seen = []
            with pytest.raises(ValueError, match=f"more than {limit}"):
                for p in grp.elements(limit):
                    seen.append(p)
            assert seen == oracle[:limit]


def test_normalizer_and_centralizer():
    s4 = PermGroup([Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
    v4 = PermGroup([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    assert s4.normalizer(v4).order() == 24  # V4 is normal in S4
    z = s4.centralizer_of_group(s4)
    assert z.order() == 1  # S4 is centreless


@pytest.mark.parametrize("n", [0, 1, 2])
def test_kernel_small_degrees(n):
    """Products, inverses and is_identity at the degrees where itemgetter
    of one index gives a scalar and of none raises."""
    perms = [Permutation(p) for p in all_perms(range(n))]
    ident = Permutation.identity(n)
    assert ident.is_identity()
    for p in perms:
        assert p.inverse().inverse() == p
        assert p * p.inverse() == ident == p.inverse() * p
        assert p.is_identity() == (list(p.img) == list(range(n)))
        for q in perms:
            assert (p * q).img == tuple(q.img[x] for x in p.img)
            assert (p * q).degree == n


def test_kernel_matches_pointwise_composition():
    """Products and inverses on 243 points against pointwise loops."""
    import random
    rng = random.Random(21)
    n = 243
    for _ in range(20):
        p = Permutation(rng.sample(range(n), n))
        q = Permutation(rng.sample(range(n), n))
        assert (p * q).img == tuple(q.img[p.img[x]] for x in range(n))
        inv = p.inverse()
        assert inv == p.inverse() and inv.inverse() == p
        assert all(inv[p[x]] == x for x in range(n))
        assert not p.is_identity() and (p * inv).is_identity()


def test_rebased_matches_schreier_sims_on_random_groups(monkeypatch):
    """Known-order chains against the deterministic Schreier-Sims with the
    same base hint: the same order, the same hinted base prefix, and the
    same membership in every hinted stabilizer, for several draw seeds;
    the closure is the order's oracle."""
    import random
    rng = random.Random(22)
    for _ in range(30):
        grp = random_group(rng, n_max=7)
        elements = closure_elements(grp.generators, grp.degree)
        hint = tuple(rng.sample(range(grp.degree),
                                rng.randint(0, grp.degree - 1)))
        slow = PermGroup(grp.generators, grp.degree, base_hint=hint)
        for seed in (0, 1, 2):
            monkeypatch.setattr(perms, "CHAIN_SEED", seed)
            fast = grp.rebased(hint)
            assert fast.order() == len(elements) == slow.order()
            assert fast.base[:len(hint)] == list(hint)
            for k in range(len(hint) + 1):
                f, s = fast.stabilizer(k), slow.stabilizer(k)
                assert f.order() == s.order()
                for e in elements:
                    assert (Permutation(e) in f) == (Permutation(e) in s)


def test_from_base_rejects_a_short_base():
    """A generator fixing the whole base would be lost from the chain, so
    from_base refuses it rather than report a smaller order."""
    swap = Permutation([0, 2, 1])
    with pytest.raises(ValueError, match="fixes the whole base"):
        PermGroup.from_base([swap], 3, [0])
    assert PermGroup.from_base([swap], 3, [0, 1]).order() == 2


def test_base_point_out_of_range_is_named():
    """A base point outside 0..degree - 1 is refused where its chain level
    is made, with the point and the range named, by every entry point that
    takes one."""
    swap = PermGroup([Permutation([1, 0, 2])])
    calls = [lambda: PermGroup([], 3).rebased((5,)),
             lambda: swap.rebased((0, 3)),
             lambda: PermGroup.from_base([], 3, [5]),
             lambda: swap.pointwise_stabilizer((0, 3)),
             lambda: swap.point_stabilizer(5),
             lambda: swap.point_stabilizer(-1),
             lambda: PermGroup(swap.generators, 3, base_hint=(7,)).order()]
    for call, point in zip(calls, (5, 3, 5, 3, 5, -1, 7)):
        with pytest.raises(ValueError,
                           match=f"^base point {point} outside 0..2$"):
            call()
    assert swap.point_stabilizer(2).order() == 2


def test_random_elements_are_uniform_members():
    """Each draw is one product t_L ... t_0, so over a small group every
    element appears and each draw is a member."""
    s4 = PermGroup([Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
    draws = s4.random_elements(3)
    seen = {next(draws).img for _ in range(400)}
    assert seen == closure_elements(s4.generators, 4)


@pytest.mark.parametrize("q, m", ((3, 1), (2, 2)))
@pytest.mark.parametrize("seed", (1, 2))
def test_random_elements_match_product_loop(q, m, seed):
    """The first 200 draws of random_elements(seed) on Aut of TS(3,1) and
    TS(2,2) against a loop written here: the same Random(seed), one
    rng.choice per level from its transversal list, and a full product
    rng.choice(ts) * g per level, from level 0 up."""
    import random
    aut = automorphism_group(thas_somma(q, m))
    rng = random.Random(seed)
    transversals = [list(lvl.orbit.values()) for lvl in aut._chain()]
    want = []
    for _ in range(200):
        g = Permutation.identity(aut.degree)
        for ts in transversals:
            g = rng.choice(ts) * g
        want.append(g.img)
    draws = aut.random_elements(seed)
    got = [next(draws) for _ in range(200)]
    assert all(type(p) is Permutation for p in got)
    assert [p.img for p in got] == want


def test_random_elements_on_one_point():
    """A group on one point, even with a level from a base hint, draws the
    identity: one index would make itemgetter give a scalar."""
    group = PermGroup([], 1).rebased((0,))
    assert len(group._chain()) == 1
    assert next(group.random_elements(1)).img == (0,)


def test_tail_points_decide_membership_in_tails():
    """stabilizer(k) records the k base points its tail fixes, after those
    of the group it is taken from, and pointwise_stabilizer the points it
    is given.  On Aut of TS(3,1), an element of Aut lies in each tail
    exactly when it fixes the tail's points: draws from Aut, mostly
    outside, and from the tail itself, all inside."""
    aut = automorphism_group(thas_somma(3, 1))
    base = aut.base
    draws = aut.random_elements(7)
    elements = [next(draws) for _ in range(100)]
    for k in range(len(base) + 1):
        for j in range(len(base) - k + 1):
            tail = aut.stabilizer(k).stabilizer(j)
            assert tail.tail_points == tuple(base[:k + j])
            inside = tail.random_elements(8)
            for e in elements + [next(inside) for _ in range(20)]:
                assert (e in tail) == all(e[x] == x for x in tail.tail_points)
    assert aut.pointwise_stabilizer((5, 2)).tail_points == (5, 2)
    assert aut.tail_points == ()


def test_rebased_rejects_a_wrong_order(monkeypatch):
    """Known-order sifting never loops and never clamps.  An order below
    |G| is passed by the orbit product; above |G| it is never reached, and
    the draws keep sifting to the identity.  The wrong order is put in
    place of the group's own, which rebased reads."""
    from coverlab.perms import MAX_IDLE_DRAWS
    aut = automorphism_group(thas_somma(3, 1))
    order = aut.order()
    for wrong in (1, order - 1):
        monkeypatch.setattr(aut, "order", lambda: wrong)
        with pytest.raises(ValueError, match="passes the order"):
            aut.rebased((0,))
    monkeypatch.setattr(aut, "order", lambda: 2 * order)
    with pytest.raises(ValueError, match=f"{MAX_IDLE_DRAWS} draws in a row"):
        aut.rebased((0,))
    monkeypatch.undo()
    assert aut.rebased((0,)).order() == order
