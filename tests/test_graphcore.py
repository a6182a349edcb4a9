"""Cover-axiom verification, distance layers, antipodal classes, spectra."""
import json

import pytest

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
