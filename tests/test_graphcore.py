"""Cover-axiom verification, distance layers, spectra."""
import json
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coverlab import (CoverGraph, cube, derive_params, hexagon, icosahedron,
                      params_of, spectrum_check, thas_somma, verify_cover)
from coverlab import graphcore
from coverlab.autgroup import automorphism_group
from coverlab.frames import all_characters, character_matrix, extract_lines
from coverlab.graphcore import GraphStructureError, reachable_count
from coverlab.groupops import (arc_orbit_count, covering_group, fibre_action,
                               involution_audit, involution_types,
                               quotient_cover, structure_audit,
                               subdegree_identity_check)
from coverlab.perms import subgroups_of
from conftest import (bfs_layers, matching_swapped, rank3_subgroup_ts31,
                      relabelled)


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


def test_bfs_layer_sizes():
    """The distance layers of the BFS oracle, from which the derived
    distances are checked."""
    a = hexagon().adjacency_matrix()
    assert [len(l) for l in bfs_layers(a, 0)] == [1, 2, 2, 1]
    assert [len(l) for l in bfs_layers(cube().adjacency_matrix(), 0)] == [
        1, 3, 3, 1]
    ts = thas_somma(3, 1)
    for v in range(0, ts.v, 5):
        assert [len(l) for l in bfs_layers(ts.adjacency_matrix(), v)] == [
            1, 8, 16, 2]


def test_reachable_count_stops_at_the_component():
    """2 of the 6 vertices are reachable from 0, and the oracle's layers
    stop at the start's component."""
    g = CoverGraph([[0, 3], [1, 4], [2, 5]], [(0, 1), (3, 4)])
    assert reachable_count(g.adjacency_matrix()) == 2
    assert bfs_layers(g.adjacency_matrix(), 0) == [[0], [1]]
    assert bfs_layers(g.adjacency_matrix(), 3) == [[3], [4]]


def test_reachable_count_matches_the_bfs_oracle():
    """On random graphs of every density, vertex 0's component is as
    large as the oracle's layers from 0 hold."""
    rng = random.Random(5)
    for _ in range(200):
        v = rng.randint(1, 24)
        p = rng.random() / 2
        a = np.zeros((v, v), dtype=bool)
        for u in range(v):
            for w in range(u + 1, v):
                if rng.random() < p:
                    a[u, w] = a[w, u] = True
        assert reachable_count(a) == sum(map(len, bfs_layers(a, 0)))


def test_accessors_reject_labels_outside_the_vertices():
    """degree, neighbours and has_edge name a label outside 0..v-1 as bad
    input, in either endpoint; a negative one is not read as a numpy index
    from the end.  numpy integers in range are vertices."""
    g = hexagon()
    for bad in (-1, g.v, np.int64(g.v)):
        with pytest.raises(GraphStructureError, match="not in 0..5"):
            g.degree(bad)
        with pytest.raises(GraphStructureError, match="not in 0..5"):
            g.neighbours(bad)
        for u, w in ((0, bad), (bad, 0)):
            with pytest.raises(GraphStructureError, match="not in 0..5"):
                g.has_edge(u, w)
    last = np.int64(g.v - 1)
    assert g.degree(last) == 2 and g.neighbours(last) == [0, 4]
    assert g.has_edge(np.int64(0), last) and not g.has_edge(0, np.int32(3))


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
    assert not rep.ok and "cover" in rep.failed


def test_spectrum_check_rejects_another_valid_triple(corpus):
    """A verified cover checked against another admissible triple fails
    parameters: the cube is no (3, 2, 1)-cover, TS(3,1) no (9, 3, 1)-cover."""
    for name, p in (("cube", derive_params(3, 2, 1)),
                    ("ts31", derive_params(9, 3, 1))):
        rep = spectrum_check(corpus[name], p)
        assert not rep.ok and rep.failed[0] == "parameters", (name, rep)


def test_spectrum_check_rejects_a_changed_spectral_field(corpus):
    """p's parameters match the cover but one spectral field does not: the
    model traces no longer sum to tr(A^m)."""
    g = corpus["ts31"]
    p = params_of(g)
    for field, value in (("m_theta", p.m_theta + 1), ("m_tau", p.m_tau - 1),
                         ("theta", p.theta + 1), ("tau", p.tau * 2)):
        rep = spectrum_check(g, p._replace(**{field: value}))
        assert not rep.ok and rep.failed, field
        assert all(f.startswith("model-trace-A^") for f in rep.failed), rep


def test_spectrum_check_reads_the_recorded_report(verify_calls):
    """On a graph already verified, spectrum_check verifies nothing again."""
    g = thas_somma(3, 1)
    p = params_of(g)
    assert verify_calls == [g]
    assert spectrum_check(g, p).ok
    assert verify_calls == [g]


def test_exact_checks_hold_few_v_by_v_arrays():
    """tracemalloc's peak on TS(8,1), in units of one float32 v x v array.
    spectrum_check reads the recorded report and allocates no matrix;
    verify_cover holds A's float32 copy and the residual's second block,
    (v - n)^2 floats of the symmetric product, as the graph owns the bool
    A: a peak of 1.864 units, measured on Python 3.11 with numpy 2.4
    (2.067 when that block was (v - n) x v)."""
    g = thas_somma(8, 1)
    p = params_of(g)
    unit = g.v * g.v * np.dtype(np.float32).itemsize

    def peak(check):
        tracemalloc.start()
        try:
            check()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    assert peak(lambda: spectrum_check(g, p)) < 0.05
    assert peak(lambda: verify_cover(g)) <= 1.97


def test_cover_graph_retains_one_byte_per_vertex_pair():
    """Constructing TS(8,1) retains its v x v bool matrix and the fibre
    tuples, under 2m bytes besides: no packed copy (v^2/8 bytes) and no
    int rows are held alongside."""
    g = thas_somma(8, 1)
    fibres, edges = [list(f) for f in g.fibres], list(g.edges)
    tracemalloc.start()
    try:
        h = CoverGraph(fibres, edges)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.v * g.v <= retained < g.v * g.v + 2 * len(edges)


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
                layers = bfs_layers(g.adjacency_matrix(), v)
                assert sum(len(l) for l in layers) == g.v
                assert set(layers[3]) == set(g.fibres[g.fibre_of[v]]) - {v}
                assert rep.diameter == len(layers) - 1


def test_verify_cover_makes_one_bfs(monkeypatch):
    """At most one reachability pass: none on a cover, whose axioms (b)-(d)
    imply that it is connected, and one on a graph that fails an axiom, to
    report it as disconnected if it is."""
    passes = []

    def counting(a):
        passes.append(a)
        return reachable_count(a)

    monkeypatch.setattr(graphcore, "reachable_count", counting)
    assert verify_cover(thas_somma(4, 1)).is_cover
    assert passes == []
    g = matching_swapped(thas_somma(4, 1))
    assert not verify_cover(g).is_cover
    assert len(passes) == 1 and passes[0] is g._a


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


def test_etf_stages_leave_edge_tuples_unbuilt(monkeypatch):
    """Loading TS(8,1) and running verify_cover, spectrum_check,
    covering_group and character_matrix never asks for the edge tuples,
    and no graph keeps them: a read builds them from _pairs and, once
    _pairs exists, retains nothing."""
    reads = []
    edges = CoverGraph.edges
    monkeypatch.setattr(CoverGraph, "edges", property(
        lambda g: reads.append(g) or edges.fget(g)))
    g = CoverGraph.from_json(thas_somma(8, 1).to_json_str())
    assert verify_cover(g).is_cover
    assert spectrum_check(g, params_of(g)).ok
    k, _ = covering_group(g)
    character_matrix(g, all_characters(k)[1], kernel=k)
    assert reads == []
    monkeypatch.undo()

    assert "_edges" not in CoverGraph.__slots__
    # _pairs exists, as covering_group read it; the read's tuple and pairs,
    # about 1.0 MB, are freed with it, and what stays traced is CPython's
    # free list of 2-tuples, at most 2 000 of 56 bytes
    tracemalloc.start()
    try:
        g.edges
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    first = g.edges
    assert len(first) == 512 * 63 // 2 and g.edges == first
    assert sys.getrefcount(first) == 2  # first and getrefcount's argument
    assert retained < (sys.getsizeof(first)
                       + sum(map(sys.getsizeof, first))) / 4


def _dumps(g) -> str:
    return json.dumps(g.to_json(), sort_keys=True, separators=(",", ":"))


def test_json_writer_matches_json_dumps(corpus):
    """to_json_str is json.dumps of to_json, byte for byte: on the corpus
    relabelled by seeds 0-2, on a graph with no edges, on a quotient and
    on a toggled copy, and across the writer's row blocks."""
    graphs = [relabelled(g, seed) for g in corpus.values()
              for seed in (0, 1, 2)]
    graphs.append(CoverGraph([[0, 1], [2, 3], [4, 5]], []))
    ts81 = thas_somma(8, 1)
    k, _ = covering_group(ts81)
    sub = next(u for u in subgroups_of(k) if u.order() == 2)
    graphs += [quotient_cover(ts81, sub), ts81.toggled(0, 1),
               ts81.toggled(0, 8)]
    assert any(g._pairs.shape[0] > graphcore._JSON_ROWS for g in graphs)
    for g in graphs:
        assert g.to_json_str() == _dumps(g)
    assert graphs[-4].to_json_str() == (
        '{"edges":[],"fibres":[[0,1],[2,3],[4,5]],"v":6}')


def test_json_writer_peak_memory():
    """The writer's traced peak on TS(8,1) stays within 4 times the text
    it returns: 3.5 times, 548 566 bytes for 156 446 characters, measured
    on Python 3.11 with numpy 2.4; json.dumps of to_json peaks near 28.5
    times, on a list per edge."""
    g = thas_somma(8, 1)
    g._pairs  # read before tracing: the writer's input, kept by the graph
    tracemalloc.start()
    try:
        text = g.to_json_str()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_toggled_matches_set_oracle():
    """toggled on 200 seeded pairs, each applied to the graph the last one
    left, equals the graph a set of pairs gives, adding and removing."""
    g = thas_somma(3, 1)
    pairs = set(g.edges)
    rng = random.Random(0)
    added = removed = 0
    for _ in range(200):
        u, w = rng.sample(range(g.v), 2)
        pair = (min(u, w), max(u, w))
        if pair in pairs:
            pairs.remove(pair)
            removed += 1
        else:
            pairs.add(pair)
            added += 1
        g = g.toggled(u, w)
        assert g.edges == tuple(sorted(pairs))
        assert g.fibres == thas_somma(3, 1).fibres
    assert added > 20 and removed > 20


def test_toggled_names_a_bad_pair():
    g = hexagon()
    for u, w, msg in [(0, 0, "cannot toggle a loop"),
                      (0, 6, "edge (0,6) out of range"),
                      (-1, 2, "edge (-1,2) out of range"),
                      (0.5, 2, "non-integer label")]:
        with pytest.raises(GraphStructureError, match=re.escape(msg)):
            g.toggled(u, w)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_json_matches_argwhere_formula(corpus, seed):
    """relabelled's canonical JSON equals the image of every pair u < w of
    the adjacency matrix, sorted, beside the relabelled fibres."""
    for g in corpus.values():
        perm = list(range(g.v))
        random.Random(seed).shuffle(perm)
        images = np.array(perm)
        pairs = images[np.argwhere(np.triu(g.adjacency_matrix(), 1))]
        want = {"v": g.v,
                "fibres": sorted(sorted(perm[x] for x in f) for f in g.fibres),
                "edges": sorted(sorted(e) for e in pairs.tolist())}
        assert relabelled(g, seed).to_json_str() == json.dumps(
            want, sort_keys=True, separators=(",", ":"))
        # the same edges shuffled, some reversed and some repeated, as one
        # array: the constructor's one sort gives the same canonical pairs
        rng = np.random.default_rng(seed)
        shuffled = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(shuffled)) < 0.5
        shuffled[flip] = shuffled[flip, ::-1]
        shuffled = np.concatenate([shuffled, shuffled[rng.integers(
            0, len(shuffled), 20)][:, ::-1]])
        h = CoverGraph(want["fibres"], shuffled, g.v)
        assert h.to_json() == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hexagon", "cube", "icosahedron", "ts31", "ts41"]),
       st.integers(0, 2 ** 32 - 1))
def test_invariants_survive_relabelling(corpus, name, seed):
    """verify_cover's verdict and parameters, params_of, |K| and the orders
    of K's subgroups do not depend on the vertex labels."""
    def invariants(g):
        rep = verify_cover(g)
        k, _ = covering_group(g)
        return ((rep.is_cover, rep.n, rep.r, rep.mu, rep.lam), params_of(g),
                k.order(), sorted(u.order() for u in subgroups_of(k)))

    g = corpus[name]
    assert invariants(relabelled(g, seed)) == invariants(g)


def test_json_reader_accepts_any_order():
    g = hexagon()
    obj = g.to_json()
    obj["edges"] = [[w, u] for u, w in reversed(obj["edges"])]
    obj["fibres"] = [list(reversed(f)) for f in reversed(obj["fibres"])]
    h = CoverGraph.from_json(json.dumps(obj))
    assert h.fibres == g.fibres and h.edges == g.edges


def _reference_from_json(text):
    """from_json as json.loads and the constructor: the reader the compact
    decode must agree with."""
    obj = json.loads(text)
    if not (isinstance(obj, dict) and {"v", "fibres", "edges"} <= obj.keys()):
        raise GraphStructureError(
            "a cover is a JSON object with the keys v, fibres and edges")
    return CoverGraph(obj["fibres"], obj["edges"], obj["v"])


def _outcome(read, text):
    """The canonical JSON read gives for text, or its exception's type and
    message (a JSONDecodeError's message holds its position)."""
    try:
        return read(text).to_json_str()
    except ValueError as exc:
        return type(exc), str(exc)


def _compact(obj) -> str:
    """obj written compact with its keys in their own order."""
    return json.dumps(obj, separators=(",", ":"))


_HEXAGON = ('{"v":6,"fibres":[[0,3],[1,4],[2,5]],"edges":'
            '[[0,1],[0,5],[1,2],[2,3],[3,4],[4,5]]}')


def _decode_cases():
    """Texts that take the compact decode and texts that must fall back
    to json.loads, each of which must read as the reference reads it."""
    ring = '[[0,1],[0,5],[1,2],[2,3],[3,4],[4,5]]'
    head = '{"v":6,"fibres":[[0,3],[1,4],[2,5]],'
    edges = {"whitespace": "[[0, 1],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "leading zero": "[[0,01],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "zero zero": "[[00,1],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "negative": "[[0,-1],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "float": "[[0,1.0],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "exponent": "[[0,1e0],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "bool": "[[0,true],[0,5],[1,2],[2,3],[3,4],[4,5]]",
             "19 digits": "[[0,9999999999999999999],[1,2]]",
             "10^18": "[[0,1000000000000000000],[1,2]]",
             "10^18 - 1": "[[0,999999999999999999],[1,2]]",
             "past uint64": "[[0,1180591620717411303424],[1,2]]",
             "empty": "[]", "empty pair": "[[]]", "empty label": "[[0,],[1,2]]",
             "leading comma": "[[,1],[1,2]]", "triple": "[[0,1,2],[1,2]]",
             "single": "[[0]]", "loop": "[[0,0]]", "out of range": "[[0,7]]",
             "nested": "[[[0,1]]]", "string": '[[0,"1"]]', "object": "{}",
             "extra ]": ring + "]", "unclosed": "[[0,1],[0,5]",
             "label after ]": "[[0,1]0,[1,2]]",
             "label past ]": "[[0,]1,[1,2]]",
             "label before [": "[[0,1],2[1,2]]"}
    cases = {name: head + '"edges":' + e + "}" for name, e in edges.items()}
    cases.update({
        "canonical": _HEXAGON, "trailing text": _HEXAGON + "x",
        "trailing ]": _HEXAGON + "]", "trailing space": _HEXAGON + " ",
        "no edges key": head[:-1] + "}",
        "repeated edges": head + '"edges":' + ring + ',"edges":[[0,1]]}',
        "repeated edges null": head + '"edges":' + ring + ',"edges":null}',
        "nested edges": '{"x":{"edges":' + ring + '},' + head[1:-1] + "}",
        "nested edges too": head + '"x":{"edges":[[0,1]]},"edges":' + ring + "}",
        "edges as a value": head + '"y":"edges","edges":' + ring + "}",
        "escaped quote key": head + '"\\"edges":' + ring + "}",
        "escaped key": head + '"edges":' + ring + ',"\\u0065dges":null}',
        "escaped key first": '{"\\u0065dges":null,' + head[1:] + '"edges":'
                             + ring + "}",
        "edges in a list": '[{"edges":' + ring + "}]",
        "space after colon": head + '"edges": ' + ring + "}",
        "non-ascii": head + '"edges":[[0,1],[0,\u00e9]]}',
        "v last": '{"fibres":[[0,3],[1,4],[2,5]],"edges":' + ring + ',"v":6}',
        "no v": '{"fibres":[[0,3],[1,4],[2,5]],"edges":' + ring + "}",
        "v past labels": '{"v":5,"fibres":[[0,3],[1,4],[2,5]],"edges":'
                         + ring + "}",
    })
    return cases


def test_from_json_matches_json_loads_reader(corpus):
    """from_json gives what json.loads and the constructor give: the same
    canonical JSON, or the same exception type and message, JSONDecodeError
    positions included, on the corpus relabelled and written canonical or
    compact with its keys unsorted, and on every text the compact decode
    must pass over."""
    texts = _decode_cases()
    for name, g in corpus.items():
        for seed in range(3):
            h = relabelled(g, seed)
            obj = h.to_json()
            texts[f"{name}/{seed}"] = h.to_json_str()
            rng = random.Random(seed)
            edges = [e[::-1] if rng.random() < 0.5 else e
                     for e in rng.sample(obj["edges"], len(obj["edges"]))]
            texts[f"{name}/{seed}/unsorted"] = _compact(
                {"v": h.v, "fibres": obj["fibres"], "edges": edges})
    for name, text in texts.items():
        assert (_outcome(CoverGraph.from_json, text)
                == _outcome(_reference_from_json, text)), name


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(_HEXAGON)), st.integers(0, 2),
       st.sampled_from('0123456789[],:{}"\\ -.ex'))
@example(_HEXAGON.index("[[0,1]") + 3, 0, "0")
@example(_HEXAGON.index("[[0,1]") + 3, 2, "0")
def test_from_json_matches_json_loads_reader_on_edits(at, kind, char):
    """One character of the hexagon's canonical text inserted, replaced or
    deleted: from_json and the json.loads reader agree."""
    if kind == 0:
        text = _HEXAGON[:at] + char + _HEXAGON[at:]
    elif kind == 1:
        text = _HEXAGON[:at] + char + _HEXAGON[at + 1:]
    else:
        text = _HEXAGON[:at] + _HEXAGON[at + 1:]
    assert (_outcome(CoverGraph.from_json, text)
            == _outcome(_reference_from_json, text))


def test_from_json_reads_compact_edges_without_json_loads(monkeypatch):
    """TS(8,1), written canonical or compact with its keys unsorted, never
    hands json.loads more than 4 KB: its edge list, 150 KB of the text, is
    read by numpy, and only v and the fibres, 2.1 KB, go to json.loads."""
    g = thas_somma(8, 1)
    obj = g.to_json()
    texts = [g.to_json_str(), _compact(
        {"v": g.v, "fibres": obj["fibres"], "edges": obj["edges"]})]
    assert texts[0] != texts[1] and len(texts[1]) > 100_000
    seen = []
    loads = json.loads

    def recording(text, *args, **kwargs):
        seen.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(graphcore.json, "loads", recording)
    for text in texts:
        assert CoverGraph.from_json(text).to_json_str() == texts[0]
    assert seen and max(seen) <= 4096


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


def test_from_json_names_malformed_shapes():
    """JSON of the wrong shape is a GraphStructureError naming the field,
    and for edges the first bad one in input order, never a TypeError or
    numpy's ValueError for a ragged array."""
    hexagon_json = hexagon().to_json()
    edges, fibres = hexagon_json["edges"], hexagon_json["fibres"]
    shape = "a cover is a JSON object with the keys v, fibres and edges"
    cases = {"[]": shape, "5": shape, "null": shape, '{"v": 6}': shape}
    for change, message in (
            ({"fibres": None}, "fibres None is not a list"),
            ({"fibres": [None] + fibres[1:]}, "fibre None is not a list"),
            ({"edges": 5}, "edges 5 is not a list"),
            ({"edges": [5] + edges[1:]}, "edge 5 is not a vertex pair"),
            ({"edges": [[0]] + edges[1:]}, "edge [0] is not a vertex pair"),
            ({"edges": [[0, 1, 2]] + edges}, "edge [0, 1, 2] is not a vertex "
                                             "pair"),
            ({"edges": edges[:2] + [[0, 9], [0]]}, "edge (0,9) out of range"),
            ({"edges": edges[:2] + [[0], [0, 9]]}, "edge [0] is not a vertex "
                                                   "pair"),
            ({"edges": [[0, None], 5]}, "edge (0, None) has a non-integer "
                                        "label")):
        cases[json.dumps(dict(hexagon_json, **change))] = message
    for text, message in cases.items():
        with pytest.raises(GraphStructureError) as exc:
            CoverGraph.from_json(text)
        assert str(exc.value) == message, text


def test_cover_graph_range_checks_labels_past_int64():
    """A label past the int64 range, a Python int such as 2**70 or a
    uint64 past 2**63, is an edge out of range, not numpy's
    OverflowError; a fibre label that large leaves the fibres short of a
    partition of 0..v-1."""
    fibres = [[0, 3], [1, 4], [2, 5]]
    ring = [[i, (i + 1) % 6] for i in range(6)]
    for big in (2 ** 70, -2 ** 70, np.uint64(2 ** 64 - 1)):
        with pytest.raises(GraphStructureError) as exc:
            CoverGraph(fibres, ring[:2] + [[0, big]] + ring[2:])
        assert str(exc.value) == f"edge (0,{big}) out of range"
    with pytest.raises(GraphStructureError, match="do not partition"):
        CoverGraph([[0, 3], [1, 4], [2, 2 ** 70]], ring)


def test_cover_graph_accepts_numpy_scalar_labels():
    """np.int32 and np.uint64 labels, as scalars in lists or as whole
    arrays, give the hexagon with plain int labels; numpy bools, like
    Python bools, are rejected in fibres and in edges."""
    fibres = [[0, 3], [1, 4], [2, 5]]
    ring = [[i, (i + 1) % 6] for i in range(6)]
    hexagon_json = hexagon().to_json()
    for t in (np.int32, np.uint64):
        for g in (CoverGraph([[t(x) for x in f] for f in fibres],
                             [[t(u), t(w)] for u, w in ring], t(6)),
                  CoverGraph(np.array(fibres, dtype=t),
                             np.array(ring, dtype=t))):
            assert g.to_json() == hexagon_json
            assert all(type(x) is int for f in g.fibres for x in f)
            assert all(type(x) is int for x in g.fibre_of)
            assert g.fibre_of == (0, 1, 2, 0, 1, 2)
    for bad in (True, np.True_):
        with pytest.raises(GraphStructureError, match="not an integer"):
            CoverGraph([[0, 3], [bad, 4], [2, 5]], ring)
        with pytest.raises(GraphStructureError, match="non-integer"):
            CoverGraph(fibres, ring[:3] + [[3, bad]] + ring[4:])
    with pytest.raises(GraphStructureError, match="non-integer"):
        CoverGraph(fibres, np.array(ring) > 2)


def test_cover_graph_from_a_fibre_array_matches_the_list(corpus):
    """A fibre array, an int64 or int32 one, with its rows in reverse and
    each row reversed, builds the graph a list builds: fibres, fibre_of,
    the members array and A, on the corpus and on copies relabelled by
    seeds 1 and 2."""
    for name, base in corpus.items():
        for g in (base, relabelled(base, 1), relabelled(base, 2)):
            fibres = [list(f)[::-1] for f in g.fibres][::-1]
            edges = g._pairs
            want = CoverGraph(fibres, edges, g.v)
            for dtype in (np.int64, np.int32):
                h = CoverGraph(np.array(fibres, dtype=dtype), edges)
                assert h.fibres == want.fibres == g.fibres, name
                assert h.fibre_of == want.fibre_of == g.fibre_of, name
                assert h._members.dtype == np.intp
                assert (h._members == want._members).all(), name
                assert (h._a == want._a).all(), name


def _structure_error(fibres, vertex_count=None):
    """The message CoverGraph gives for fibres on the hexagon's edges."""
    ring = [[i, (i + 1) % 6] for i in range(6)]
    with pytest.raises(GraphStructureError) as exc:
        CoverGraph(fibres, ring, vertex_count)
    return str(exc.value)


def test_cover_graph_fibre_array_errors_match_the_list():
    """Bool, float, ragged, out-of-range, repeated and 2**70 fibre arrays,
    too few or too small fibres and a wrong vertex count raise the
    GraphStructureError the same fibres raise as lists; a partition past
    VERTEX_BOUND raises SizeBoundExceeded either way."""
    cases = {
        "bool": ([[False, True], [True, False], [False, True]], None),
        "float": ([[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]], None),
        "ragged": ([[0, 3], [1, 4], [2, 5, 6]], None),
        "range": ([[0, 3], [1, 4], [2, 6]], None),
        "negative": ([[0, 3], [1, 4], [-1, 5]], 6),
        "repeated": ([[0, 3], [1, 4], [3, 5]], None),
        "big": ([[0, 3], [1, 4], [2, 2 ** 70]], None),
        "count": ([[0, 3], [1, 4], [2, 5]], 7),
        "two": ([[0, 2], [1, 3]], None),
        "one": ([[0], [1], [2]], None),
        "empty": ([], None),
    }
    messages = set()
    for name, (fibres, count) in cases.items():
        want = _structure_error(fibres, count)
        dtype = object if name in ("ragged", "big") else None
        assert _structure_error(np.array(fibres, dtype=dtype),
                                count) == want, name
        messages.add(want)
    # range, negative, big and count all fail the partition
    assert len(messages) == 8
    huge = np.arange(graphcore.VERTEX_BOUND + 2).reshape(-1, 2)
    for fibres in (huge, huge.tolist()):
        with pytest.raises(graphcore.SizeBoundExceeded):
            CoverGraph(fibres, [])


_BAD_EDGES = {"pair": ([0, 1, 2], "edge [0, 1, 2] is not a vertex pair"),
              "label": ([0, 1.0], "edge (0, 1.0) has a non-integer label"),
              "range": ([0, 6], "edge (0,6) out of range"),
              "loop": ([4, 4], "loop at 4")}


@pytest.mark.parametrize("first", sorted(_BAD_EDGES))
def test_cover_graph_names_first_bad_edge_at_every_position(first):
    """With a bad edge of one kind at position k and one of any kind at
    the end, the first in input order is named, for every k and every
    later kind: the whole-list checks only detect a fault, the scan names
    it."""
    ring = [[i, (i + 1) % 6] for i in range(6)]
    edge, message = _BAD_EDGES[first]
    for k in range(len(ring) + 1):
        for later in _BAD_EDGES:
            edges = ring[:k] + [edge] + ring[k:] + [_BAD_EDGES[later][0]]
            with pytest.raises(GraphStructureError) as exc:
                CoverGraph([[0, 3], [1, 4], [2, 5]], edges)
            assert str(exc.value) == message, (k, later)


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


def _corpus_case(g, seed=None):
    g = g if seed is None else relabelled(g, seed)
    return g.v, [list(f) for f in g.fibres], list(g.edges)


_SET_ORACLE_GRAPHS = [hexagon(), cube(), icosahedron(), thas_somma(3, 1),
                      thas_somma(4, 1)]


def _with_examples(cases):
    """Hypothesis's @example once for each case."""
    def add(test):
        for case in cases:
            test = example(case)(test)
        return test
    return add


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@_with_examples([_corpus_case(g, seed) for g in _SET_ORACLE_GRAPHS
                 for seed in (None, 1, 2)])
def test_cover_graph_matches_set_oracle(case):
    """edges, to_json, degree, neighbours, has_edge and the adjacency
    matrix equal a set-based build, on random edge lists and on the corpus
    relabelled by seeds 1 and 2; the matrix is a read-only view; and an
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
    a = g.adjacency_matrix()
    assert a.dtype == np.uint8 and a.tolist() == matrix
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1
    assert np.shares_memory(a, g.adjacency_matrix())
    fibres = sorted((sorted(f) for f in fibres), key=lambda f: f[0])
    assert g.to_json() == {"v": v, "fibres": fibres,
                           "edges": [list(e) for e in sorted(pairs)]}
    nbrs = [sorted({w for e in pairs for w in e if u in e} - {u})
            for u in range(v)]
    assert [g.neighbours(u) for u in range(v)] == nbrs
    assert [g.degree(u) for u in range(v)] == list(map(len, nbrs))
    assert all(g.has_edge(u, w) == ((min(u, w), max(u, w)) in pairs)
               for u in range(v) for w in range(v))


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


def _case(g, max_violations):
    return [list(f) for f in g.fibres], list(g.edges), max_violations


# the 9-cycle 0-3-6-1-4-7-2-5-8 on the fibres {0,1,2}, {3,4,5}, {6,7,8}:
# cocliques and perfect matchings, but mu = 0 at (0, 4), the first
# non-adjacent cross-fibre pair, so mu-positive follows 3 mu-constant
# witnesses
NINE_CYCLE = ([[0, 1, 2], [3, 4, 5], [6, 7, 8]],
              [(0, 3), (3, 6), (6, 1), (1, 4), (4, 7), (7, 2), (2, 5),
               (5, 8), (8, 0)], 3)


def _ts81_quotient():
    """TS(8,1)'s 256-vertex quotient by a subgroup of order 2, read from
    its CLI golden, so that no library code runs to build the case."""
    golden = Path(__file__).parent / "golden"
    blob = json.loads((golden / "quotient_ts81_order2_index3.json").read_text())
    assert blob["v"] == 256
    return blob["fibres"], [tuple(e) for e in blob["edges"]], 1


@settings(max_examples=250, deadline=None)
@given(perturbed_covers())
@example(NINE_CYCLE)
# two triangles: (b) and (c) hold and mu fails, but the graph is
# disconnected, and that alone is reported
@example(([[0, 3], [1, 4], [2, 5]],
          [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 10))
# mu fails and the residual is nonzero on edges too, where it names nothing
@example(_case(matching_swapped(thas_somma(4, 1)), 10))
@example(_ts81_quotient())
def test_verify_cover_matches_pair_loop_oracle(case):
    fibres, edges, m = case
    got = verify_cover(CoverGraph(fibres, edges), max_violations=m).to_json()
    assert got == _oracle_report(fibres, edges, m)


# matching-swapped TS(4,1) and TS(8,1), by the seeded swap and by one
# between the last two fibres, each plain and relabelled by seeds 1 and 2.
# verify_cover reads R's rows 0..n-1 first and the rest only while fewer
# than cap witnesses are found; the first block holds 32, 41 and 54 or 55
# witnesses on TS(4,1) and 56 to 349 on TS(8,1), so the caps below fall
# short of it and past it, and 32 and 64 are on the plain late swaps'
# counts, 33 and 65 one past them
BLOCK_COVERS = {
    f"ts{q}1-{swap}-{seed or 'plain'}": (q, swap, seed)
    for q in (4, 8) for swap in ("seeded", "late") for seed in (None, 1, 2)}
BLOCK_CASES = [(name, cap) for name in sorted(BLOCK_COVERS)
               for cap in (1, 10, 50)]
BLOCK_CASES += [("ts41-late-plain", 32), ("ts41-late-plain", 33),
                ("ts81-late-plain", 64), ("ts81-late-plain", 65)]


def _block_cover(name):
    q, swap, seed = BLOCK_COVERS[name]
    g = thas_somma(q, 1)
    g = matching_swapped(g, None if swap == "seeded" else (g.n - 2, g.n - 1))
    return g if seed is None else relabelled(g, seed)


@pytest.mark.parametrize("name,cap", BLOCK_CASES,
                         ids=[f"{name}-cap{cap}" for name, cap in BLOCK_CASES])
def test_verify_cover_matches_pair_loop_oracle_at_the_row_blocks(name, cap):
    g = _block_cover(name)
    got = verify_cover(g, max_violations=cap).to_json()
    assert got == _oracle_report(*_case(g, cap))


def test_verify_cover_row_block_counts():
    """The first row block's witness counts the caps above are set
    against, read off the uncapped pair-loop oracle."""
    for name, count in [("ts41-late-plain", 32), ("ts81-late-plain", 64)]:
        g = _block_cover(name)
        rep = _oracle_report(*_case(g, g.v * g.v))
        assert sum(f["witness"][0] < g.n for f in rep["failures"]) == count


def test_etf_stages_read_the_matrix_in_place(monkeypatch):
    """verify_cover, spectrum_check, covering_group, character_matrix,
    extract_lines and all 14 quotients of TS(8,1) pack no bit rows, and no
    quotient builds its edge pairs; the automorphism search packs them
    once.  On a relabelled TS(4,1), the analyze stages, the search then
    fibre_action, arc_orbit_count, structure_audit,
    subdegree_identity_check, involution_types and every involution_audit,
    make one np.packbits between them: bit rows are the search's own form,
    and a graph has no slot to keep them in.  TS(4,1)'s fibre rank is 2,
    so the subdegree identities are read, with no pack, on the rank-3
    subgroup of TS(3,1)."""
    assert "_rows" not in CoverGraph.__slots__
    packs = []
    packbits, unpackbits = np.packbits, np.unpackbits
    monkeypatch.setattr(np, "packbits",
                        lambda *a, **kw: packs.append(1) or packbits(*a, **kw))
    monkeypatch.setattr(np, "unpackbits", lambda *a, **kw: (
        packs.append(0) or unpackbits(*a, **kw)))
    g = thas_somma(8, 1)
    assert verify_cover(g).is_cover
    assert spectrum_check(g, params_of(g))
    k, _ = covering_group(g)
    s = character_matrix(g, all_characters(k)[1])
    for side in ("tau", "theta"):
        extract_lines(s, side)
    quotients = [quotient_cover(g, u) for u in subgroups_of(k)
                 if 1 < u.order() < g.r]
    assert len(quotients) == 14
    assert all(h._pair_array is None for h in quotients)
    assert packs == []
    assert automorphism_group(g).order() == 5419008
    assert packs == [1]

    packs.clear()
    g = relabelled(thas_somma(4, 1), 3)
    fa = fibre_action(g, automorphism_group(g))
    arc_orbit_count(g, fa)
    assert all(item.status == "pass" for item in structure_audit(g, fa))
    subdegree_identity_check(g, fa)
    kinds, _ = involution_types(g, fa)
    for _, x in kinds:
        involution_audit(g, x)
    assert sum(1 for kind, _ in kinds if kind[0]) > 1
    g = thas_somma(3, 1)
    assert subdegree_identity_check(
        g, fibre_action(g, rank3_subgroup_ts31()))["applicable"]
    assert packs == [1]


def test_lambda_is_forced_by_the_matchings():
    """Why verify_cover lists no lambda witness: once fibres are cocliques
    and fibre pairs perfect matchings, for every edge uw the vertices of
    u's fibre share n - 2 neighbours with w in all, as each neighbour of w
    but u has one neighbour there.  So constant mu forces lambda = n - 2 -
    (r - 1)mu.  Pinned by pair loops on matching-swapped copies, where mu
    and lambda both vary."""
    for g in (matching_swapped(thas_somma(3, 1)),
              matching_swapped(thas_somma(4, 1)), matching_swapped(cube())):
        nbrs = [set(g.neighbours(x)) for x in range(g.v)]
        assert not verify_cover(g).is_cover
        lams = set()
        for u, w in g.edges:
            shared = [len(nbrs[x] & nbrs[w]) for x in g.fibres[g.fibre_of[u]]]
            assert sum(shared) == g.n - 2
            lams.add(len(nbrs[u] & nbrs[w]))
        assert len(lams) > 1
