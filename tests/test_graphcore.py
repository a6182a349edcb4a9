"""Cover-axiom verification, distance layers, antipodal classes, spectra."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import (CoverGraph, antipodal_classes, cube, derive_params,
                      distance_classes, hexagon, icosahedron, params_of,
                      spectrum_check, thas_somma, verify_cover)
from coverlab import graphcore
from coverlab.graphcore import GraphStructureError, bfs_layers
from conftest import relabelled


def petersen_adjacency():
    """Bit rows of the Petersen graph (outer C5, inner pentagram, spokes)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    adj = [0] * 10
    for u, w in edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    return adj


def test_verify_hexagon_cube(corpus):
    rep = verify_cover(corpus["hexagon"])
    assert rep.is_cover and (rep.n, rep.r, rep.mu, rep.lam) == (3, 2, 1, 0)
    assert rep.antipodality_confirmed and rep.diameter == 3
    rep = verify_cover(corpus["cube"])
    assert rep.is_cover and (rep.n, rep.r, rep.mu, rep.lam) == (4, 2, 2, 0)


def test_verify_broken_hexagon_names_matching_axiom():
    g = hexagon().toggled(0, 1)  # delete one edge
    rep = verify_cover(g)
    assert not rep.is_cover
    assert any(f.axiom == "perfect-matching" for f in rep.failures)


def test_verify_cover_rejects_cap_below_one():
    """A cap below 1 would record no witness, and the verdict is read off
    the witnesses: the hexagon with (0,1) and (0,2) toggled read as a cover."""
    g = hexagon().toggled(0, 1).toggled(0, 2)
    assert not verify_cover(g, max_violations=1).is_cover
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_violations"):
            verify_cover(g, max_violations=cap)


def test_structural_error_distinct_from_axiom_failure():
    with pytest.raises(GraphStructureError):
        CoverGraph([[0, 1], [2, 3]], [(0, 2)])  # only 2 fibres
    with pytest.raises(GraphStructureError):
        CoverGraph([[0, 1], [2, 3], [4]], [(0, 2)])  # unequal sizes
    with pytest.raises(GraphStructureError):
        CoverGraph([[0, 1], [1, 2], [3, 4]], [])  # overlapping fibres
    with pytest.raises(GraphStructureError):
        CoverGraph([[0], [1], [2]], [])  # fibre size 1


def test_distance_classes():
    assert [len(l) for l in distance_classes(hexagon(), 0)] == [1, 2, 2, 1]
    assert [len(l) for l in distance_classes(cube(), 0)] == [1, 3, 3, 1]
    ts = thas_somma(3, 1)
    for v in range(0, ts.v, 5):
        assert [len(l) for l in distance_classes(ts, v)] == [1, 8, 16, 2]


def test_distance_classes_disconnected():
    g = CoverGraph([[0, 3], [1, 4], [2, 5]], [(0, 1), (3, 4)])
    with pytest.raises(GraphStructureError):
        distance_classes(g, 0)


def test_antipodal_classes_recover_fibres(corpus):
    for name in ("hexagon", "cube", "icosahedron", "ts31", "ts41"):
        g = corpus[name]
        assert antipodal_classes(g.adj) == [list(f) for f in g.fibres]


def test_antipodal_classes_petersen_rejected():
    with pytest.raises(GraphStructureError, match="eccentricity"):
        antipodal_classes(petersen_adjacency())


def test_antipodal_classes_non_equivalence_rejected():
    # 7-cycle: every eccentricity is 3 but the distance-3 relation is not
    # transitive, so a witness triple must be reported
    adj = [0] * 7
    for i in range(7):
        adj[i] |= 1 << ((i + 1) % 7)
        adj[(i + 1) % 7] |= 1 << i
    with pytest.raises(GraphStructureError, match="not an equivalence"):
        antipodal_classes(adj)
    # path P4 fails earlier, on eccentricity
    padj = [0] * 4
    for u, w in ((0, 1), (1, 2), (2, 3)):
        padj[u] |= 1 << w
        padj[w] |= 1 << u
    with pytest.raises(GraphStructureError, match="eccentricity"):
        antipodal_classes(padj)


def test_spectrum_checks(corpus):
    assert spectrum_check(corpus["hexagon"], derive_params(3, 2, 1)).ok
    assert spectrum_check(corpus["cube"], derive_params(4, 2, 2)).ok
    assert spectrum_check(corpus["icosahedron"], derive_params(6, 2, 2)).ok
    assert spectrum_check(corpus["ts31"], derive_params(9, 3, 3)).ok
    assert spectrum_check(corpus["ts41"], derive_params(16, 4, 4)).ok
    bad = spectrum_check(corpus["cube"], derive_params(3, 2, 1))
    assert not bad.ok and bad.failed


def test_spectrum_check_relabelled(corpus):
    for g in corpus.values():
        p = params_of(g)
        for seed in (1, 2):
            assert spectrum_check(relabelled(g, seed), p).ok


def test_spectrum_check_rejects_toggled_edge(corpus):
    g = corpus["ts31"]
    u, w = g.edges[0]
    rep = spectrum_check(g.toggled(u, w), derive_params(9, 3, 3))
    assert "minimal-polynomial" in rep.failed


def test_spectrum_check_raises_past_exactness_bound():
    # k = 2^27 and lambda = mu: the final product's partial sums reach
    # about 3 k^2 > 2^53, which float64 cannot hold exactly
    p = derive_params(2 ** 27 + 1, 7, (2 ** 27 - 1) // 7)
    assert p.lam == p.mu
    with pytest.raises(ValueError, match="2\\^53"):
        spectrum_check(hexagon(), p)


def test_mutation_single_edge_toggle_breaks_cover():
    for g in (hexagon(), cube()):
        assert verify_cover(g).is_cover
        for u in range(g.v):
            for w in range(u + 1, g.v):
                assert not verify_cover(g.toggled(u, w)).is_cover, (u, w)


def test_violation_cap_configurable():
    # destroy many matchings at once; the report caps per-axiom witnesses
    g = thas_somma(4, 1)
    bad = g
    for u, w in list(g.edges)[:8]:
        bad = bad.toggled(u, w)
    rep = verify_cover(bad, max_violations=3)
    matching = [f for f in rep.failures if f.axiom == "perfect-matching"]
    assert 0 < len(matching) <= 3
    rep_full = verify_cover(bad, max_violations=50)
    assert len(rep_full.failures) >= len(rep.failures)


def test_degree_and_far_layer_sizes(corpus):
    """verify_cover's diameter and antipodality, which it derives from the
    axioms, agree with a BFS from every vertex, under relabelling too."""
    for base in corpus.values():
        for g in (base, relabelled(base, 1), relabelled(base, 2)):
            rep = verify_cover(g)
            assert rep.is_cover and rep.antipodality_confirmed
            for v in range(g.v):
                assert g.degree(v) == g.n - 1
                layers = distance_classes(g, v)
                assert set(layers[3]) == set(g.fibres[g.fibre_of[v]]) - {v}
                assert rep.diameter == len(layers) - 1


def test_verify_cover_makes_one_bfs(monkeypatch):
    starts = []

    def counting(adj, start):
        starts.append(start)
        return bfs_layers(adj, start)

    monkeypatch.setattr(graphcore, "bfs_layers", counting)
    assert verify_cover(thas_somma(4, 1)).is_cover
    assert len(starts) == 1


def test_json_canonical_round_trip(corpus):
    for g in corpus.values():
        blob = g.to_json_str()
        h = CoverGraph.from_json(blob)
        assert h.fibres == g.fibres and h.edges == g.edges
        obj = json.loads(blob)
        assert all(u < w for u, w in obj["edges"])
        assert obj["edges"] == sorted(obj["edges"])
        mins = [f[0] for f in obj["fibres"]]
        assert mins == sorted(mins)


def test_json_reader_accepts_any_order():
    g = hexagon()
    obj = g.to_json()
    obj["edges"] = [[w, u] for u, w in reversed(obj["edges"])]
    obj["fibres"] = [list(reversed(f)) for f in reversed(obj["fibres"])]
    h = CoverGraph.from_json(json.dumps(obj))
    assert h.fibres == g.fibres and h.edges == g.edges


def test_params_of(corpus):
    p = params_of(corpus["ts41"])
    assert (p.n, p.r, p.mu, p.lam) == (16, 4, 4, 2)
    with pytest.raises(GraphStructureError):
        params_of(hexagon().toggled(0, 1))


def test_cover_graph_rejects_non_integer_labels():
    """Labels are ints, never bools, floats or strings; int() would take
    [0.9, 1] for the hexagon's edge (0, 1) and let it verify."""
    fibres = [[0, 3], [1, 4], [2, 5]]
    ring = [(i, (i + 1) % 6) for i in range(6)]
    bad_edges = [(0.9, 1), (0, True), ("0", 1), (0, 1.0), (None, 1)]
    for bad in bad_edges:
        with pytest.raises(GraphStructureError, match="non-integer"):
            CoverGraph(fibres, [bad] + ring[1:])
    for bad in (True, "0", 0.0):
        with pytest.raises(GraphStructureError, match="not an integer"):
            CoverGraph([[bad, 3], [1, 4], [2, 5]], ring)
    for bad in (True, 6.0, "6"):
        with pytest.raises(GraphStructureError, match="not an integer"):
            CoverGraph(fibres, ring, bad)
    # the first bad edge is named, not a later out-of-range one
    with pytest.raises(GraphStructureError, match="non-integer"):
        CoverGraph(fibres, [(0, 1), (False, 1), (0, 6)])
    # numpy integers are integers
    g = CoverGraph(np.array(fibres), np.array(ring), np.int64(6))
    assert g.edges == hexagon().edges and g.fibres == hexagon().fibres


_ODD_LABELS = [0.5, 1.0, True, False, "0", None]


@st.composite
def edge_lists(draw):
    """A random fibre partition and a random edge list on it: repeated
    edges, both orientations, and now and then a loop, an endpoint out of
    range or a label that is not an int."""
    n, r = draw(st.integers(3, 5)), draw(st.integers(2, 3))
    v = n * r
    perm = draw(st.permutations(range(v)))
    fibres = [list(perm[i * r:(i + 1) * r]) for i in range(n)]
    pool = draw(st.lists(st.tuples(st.integers(0, v - 1),
                                   st.integers(0, v - 1))
                         .filter(lambda e: e[0] != e[1]),
                         min_size=1, max_size=12))
    edge = st.one_of(st.sampled_from(pool),
                     st.sampled_from(pool).map(lambda e: (e[1], e[0])))
    if draw(st.booleans()):
        label = st.one_of(st.integers(-1, v), st.sampled_from(_ODD_LABELS))
        edge = st.one_of(edge, st.tuples(label, label))
    return v, fibres, draw(st.lists(edge, max_size=30))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_cover_graph_matches_set_oracle(case):
    """adj, edges and the adjacency matrix equal a set-based build, and an
    error names the first bad edge in input order."""
    v, fibres, edges = case
    expected_error = None
    for u, w in edges:
        if not all(type(x) is int for x in (u, w)):
            expected_error = f"edge {(u, w)!r} has a non-integer label"
        elif not (0 <= u < v and 0 <= w < v):
            expected_error = f"edge ({u},{w}) out of range"
        elif u == w:
            expected_error = f"loop at {u}"
        if expected_error:
            break
    if expected_error:
        with pytest.raises(GraphStructureError) as exc:
            CoverGraph(fibres, edges, v)
        assert str(exc.value) == expected_error
        return
    pairs = {(min(u, w), max(u, w)) for u, w in edges}
    g = CoverGraph(fibres, edges, v)
    assert g.edges == tuple(sorted(pairs))
    assert all(type(x) is int for e in g.edges for x in e)
    matrix = [[int((min(u, w), max(u, w)) in pairs) for w in range(v)]
              for u in range(v)]
    assert g.adj == tuple(sum(bit << w for w, bit in enumerate(row))
                          for row in matrix)
    a = g.adjacency_matrix()
    assert a.dtype == np.uint8 and a.tolist() == matrix


def _oracle_report(fibres, edges, max_violations):
    """verify_cover's report by pair loops over neighbour sets: the loops
    verify_cover ran before it read the axioms off matrix products."""
    fibres = sorted((sorted(f) for f in fibres), key=lambda f: f[0])
    n, r = len(fibres), len(fibres[0])
    v = n * r
    fibre_of = {x: i for i, f in enumerate(fibres) for x in f}
    nbrs = [set() for _ in range(v)]
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    rep = {"is_cover": False, "n": n, "r": r, "mu": None, "lambda": None,
           "failures": [], "antipodality_confirmed": False, "diameter": None}

    def fail(axiom, witness, detail):
        rep["failures"].append({"axiom": axiom, "witness": list(witness),
                                "detail": detail})

    seen, frontier = {0}, {0}
    while frontier:
        frontier = {w for u in frontier for w in nbrs[u]} - seen
        seen |= frontier
    if len(seen) != v:
        fail("connectivity", (0,), f"only {len(seen)} of {v} vertices reachable")
        return rep

    count = 0
    for i, f in enumerate(fibres):
        for u in f:
            inside = sorted(nbrs[u] & set(f))
            if inside and count < max_violations:
                fail("fibre-coclique", (u, inside[0]), f"edge inside fibre {i}")
                count += 1
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if count >= max_violations:
                break
            for u in fibres[i]:
                d = len(nbrs[u] & set(fibres[j]))
                if d != 1:
                    fail("perfect-matching", (u, j),
                         f"vertex {u} has {d} neighbours in fibre {j}")
                    count += 1
                    break
    if rep["failures"]:
        return rep

    mu = mu_witness = None
    count = 0
    for u in range(v):
        for w in range(u + 1, v):
            if fibre_of[u] == fibre_of[w] or w in nbrs[u]:
                continue
            c = len(nbrs[u] & nbrs[w])
            if mu is None:
                mu, mu_witness = c, (u, w)
            elif c != mu and count < max_violations:
                fail("mu-constant", (u, w),
                     f"{c} common neighbours, expected {mu} as at {mu_witness}")
                count += 1
    if mu is not None and mu < 1:
        fail("mu-positive", mu_witness, f"mu = {mu} < 1")
    rep["mu"] = mu
    if mu is not None and not rep["failures"]:
        lam = n - (r - 1) * mu - 2
        count = 0
        for u, w in sorted({(min(e), max(e)) for e in edges}):
            c = len(nbrs[u] & nbrs[w])
            if c != lam and count < max_violations:
                fail("lambda-mismatch", (u, w),
                     f"{c} common neighbours, expected n-(r-1)mu-2 = {lam}")
                count += 1
        if not rep["failures"]:
            rep["lambda"] = lam
    if not rep["failures"]:
        rep.update(is_cover=True, antipodality_confirmed=True, diameter=3)
    return rep


ORACLE_COVERS = {"hexagon": hexagon(), "cube": cube(),
                 "icosahedron": icosahedron(), "ts31": thas_somma(3, 1),
                 "ts22": thas_somma(2, 2)}


@st.composite
def perturbed_covers(draw):
    """A corpus cover after 0-3 random toggles or 0-3 random matching
    swaps; swaps keep the coclique and matching axioms, so mu and lambda
    are reached."""
    base = ORACLE_COVERS[draw(st.sampled_from(sorted(ORACLE_COVERS)))]
    fibres = [list(f) for f in base.fibres]
    edges = {tuple(e) for e in base.edges}
    swaps = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        if swaps:
            i, j = draw(st.lists(st.integers(0, base.n - 1), min_size=2,
                                 max_size=2, unique=True))
            u, u2 = draw(st.lists(st.sampled_from(fibres[i]), min_size=2,
                                  max_size=2, unique=True))
            w, w2 = (next(x for x in fibres[j]
                          if (min(y, x), max(y, x)) in edges) for y in (u, u2))
            edges -= {(min(u, w), max(u, w)), (min(u2, w2), max(u2, w2))}
            edges |= {(min(u, w2), max(u, w2)), (min(u2, w), max(u2, w))}
        else:
            u, w = draw(st.lists(st.integers(0, base.v - 1), min_size=2,
                                 max_size=2, unique=True))
            edges ^= {(min(u, w), max(u, w))}
    edges = [(w, u) if draw(st.booleans()) else (u, w) for u, w in edges]
    return fibres, edges, draw(st.sampled_from([1, 3, 10]))


@settings(max_examples=250, deadline=None)
@given(perturbed_covers())
def test_verify_cover_matches_pair_loop_oracle(case):
    fibres, edges, m = case
    got = verify_cover(CoverGraph(fibres, edges), max_violations=m).to_json()
    assert got == _oracle_report(fibres, edges, m)


def test_verify_cover_raises_past_float32_bound(monkeypatch):
    """Past FLOAT32_EXACT the common-neighbour products could round, so
    verify_cover raises instead of reporting; the hexagon has degree 2."""
    monkeypatch.setattr(graphcore, "FLOAT32_EXACT", 3)
    assert verify_cover(hexagon()).is_cover
    monkeypatch.setattr(graphcore, "FLOAT32_EXACT", 2)
    with pytest.raises(ValueError, match="float32"):
        verify_cover(hexagon())
