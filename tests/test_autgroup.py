"""The automorphism search: refinement properties and pinned group orders.

The refinement properties are checked against a naive colour-refinement
oracle and a full-queue refinement written here, which also pins the
search's generators and base, the |Aut| pins come from closed forms in the
literature, and the chain read off the search is checked level by level
against Schreier-Sims on the same generators, so no expectation is computed
by the search under test.
"""
import hashlib
import json
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coverlab import (automorphism_group, autgroup, graphcore, hexagon,
                      thas_somma)
from coverlab.autgroup import _refine, automorphism_generators
from coverlab.perms import PermGroup, Permutation
from conftest import relabelled


@st.composite
def graphs_with_partitions(draw):
    """(bit rows, ordered partition, relabelling) on up to 20 vertices."""
    n = draw(st.integers(1, 20))
    adj = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    colour = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = [[u for u in range(n) if colour[u] == c]
             for c in sorted(set(colour))]
    perm = draw(st.permutations(range(n)))
    return adj, cells, perm


@st.composite
def two_lifts(draw):
    """graphs_with_partitions' triple for a 2-lift of a graph on up to 10
    vertices: (u, a) is u + a*k, and (u, a) ~ (w, a ^ s_uw).  Swapping the
    two layers is a fixed-point-free automorphism that keeps the input cells,
    so no equitable refinement of them is discrete."""
    k = draw(st.integers(1, 10))
    n = 2 * k
    adj = [0] * n
    for u in range(k):
        for w in range(u + 1, k):
            if draw(st.booleans()):
                s = draw(st.integers(0, 1))
                for a in (0, 1):
                    x, y = u + a * k, w + (a ^ s) * k
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
    colour = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    cells = [[u + a * k for u in range(k) if colour[u] == c for a in (0, 1)]
             for c in sorted(set(colour))]
    perm = draw(st.permutations(range(n)))
    return adj, cells, perm


def colour_refinement(adj, cells):
    """Coarsest equitable refinement as a set partition, by repeating
    'colour := (colour, multiset of neighbour colours)' until stable."""
    n = len(adj)
    colour = [0] * n
    for i, cell in enumerate(cells):
        for u in cell:
            colour[u] = i
    while True:
        sig = [(colour[u], tuple(sorted(colour[w] for w in range(n)
                                        if adj[u] >> w & 1)))
               for u in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if len(ids) == len(set(colour)):
            break
        colour = new
    return {frozenset(u for u in range(n) if colour[u] == c)
            for c in set(colour)}


def full_queue_refine(cells, adj_rows, splitters=None):
    """The reference refinement: every input cell is queued, whatever
    splitters says, and every splitter scans every cell.  _refine from the
    splitter [v] alone must give the same cells, in the same order, on a
    partition that is equitable but for the individualized v."""
    cells = [list(c) for c in cells]
    n = sum(map(len, cells))
    queue = deque(cells)
    trace = []
    step = 0
    while queue and len(cells) < n:
        splitter = sum(1 << u for u in queue.popleft())
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                counts = [(adj_rows[u] & splitter).bit_count() for u in cell]
                keys = sorted(set(counts))
                if len(keys) > 1:
                    parts = [[u for u, k in zip(cell, counts) if k == key]
                             for key in keys]
                    cells[i:i + 1] = parts
                    trace.append((step, i, tuple((k, len(p))
                                                 for k, p in zip(keys, parts))))
                    queue.extend(parts)
                    i += len(parts) - 1
            i += 1
        step += 1
    return cells, tuple(trace)


def reference_refine(cells, adj_rows, splitters=None):
    """_refine's FIFO refinement, seeded the same way, but processing every
    splitter against every cell, the last part of each split included.
    Asserts the last-part lemma: a splitter queued as the last part of a
    split splits no cell when it is popped.  Returns (cells, trace) in
    _refine's form, the trace's starts counting vertices."""
    cells = [list(c) for c in cells]
    n = sum(map(len, cells))
    queue = deque((list(s), False)
                  for s in (cells if splitters is None else splitters))
    trace = []
    step = 0
    while queue and len(cells) < n:
        splitter, last = queue.popleft()
        mask = sum(1 << u for u in splitter)
        refined = []
        start = 0
        for cell in cells:
            counts = [(adj_rows[u] & mask).bit_count() for u in cell]
            keys = sorted(set(counts))
            if len(keys) > 1:
                assert not last, "the last part of a split split a cell"
                parts = [[u for u, k in zip(cell, counts) if k == key]
                         for key in keys]
                trace.append((step, start, tuple((k, len(p))
                                                 for k, p in zip(keys, parts))))
                queue.extend((p, i == len(parts) - 1)
                             for i, p in enumerate(parts))
                refined += parts
            else:
                refined.append(cell)
            start += len(cell)
        cells = refined
        step += 1
    return cells, tuple(trace)


@given(st.one_of(graphs_with_partitions(), two_lifts()), st.data())
@settings(max_examples=300, deadline=None)
def test_last_part_of_a_split_splits_nothing(case, data):
    """At the root and from an individualized child, the reference that
    processes every splitter finds no last part splitting a cell, and
    _refine, which skips them, gives its cells and trace."""
    adj, cells, _ = case
    root = reference_refine(cells, adj)
    assert _refine(cells, adj) == root
    open_cells = [i for i, c in enumerate(root[0]) if len(c) > 1]
    if not open_cells:
        return
    t = data.draw(st.sampled_from(open_cells))
    v = data.draw(st.sampled_from(root[0][t]))
    child = (root[0][:t] + [[v]] + [[x for x in root[0][t] if x != v]]
             + root[0][t + 1:])
    assert _refine(child, adj, [[v]]) == reference_refine(child, adj, [[v]])


def assert_coarsest_equitable(adj, cells, perm, splitters=None):
    """_refine(cells, adj, splitters) against the oracles."""
    out, trace = _refine(cells, adj, splitters)
    # (a) refines the input and keeps the input cells' order
    owner = {u: i for i, cell in enumerate(cells) for u in cell}
    homes = [owner[cell[0]] for cell in out]
    assert all(owner[u] == home for cell, home in zip(out, homes)
               for u in cell)
    assert homes == sorted(homes) and set(homes) == set(range(len(cells)))
    assert sorted(u for cell in out for u in cell) == list(range(len(adj)))
    # (b) equitable: every vertex of a cell has as many neighbours in each cell
    for x in out:
        for y in out:
            mask = sum(1 << w for w in y)
            assert len({(adj[u] & mask).bit_count() for u in x}) == 1
    # (c) the coarsest such partition, with the full queue's cell order
    assert set(map(frozenset, out)) == colour_refinement(adj, cells)
    assert out == full_queue_refine(cells, adj)[0]
    # (d) a relabelled input refines to the relabelled output, same trace
    adj2 = [0] * len(adj)
    for u, row in enumerate(adj):
        for w in range(len(adj)):
            if row >> w & 1:
                adj2[perm[u]] |= 1 << perm[w]

    def relabel(part):
        return [[perm[u] for u in c] for c in part]

    out2, trace2 = _refine(relabel(cells), adj2,
                           splitters and relabel(splitters))
    assert [set(c) for c in out2] == [{perm[u] for u in c} for c in out]
    assert trace2 == trace


@given(graphs_with_partitions())
@settings(max_examples=300, deadline=None)
def test_refine_is_the_coarsest_equitable_refinement(case):
    assert_coarsest_equitable(*case)


@given(st.one_of(graphs_with_partitions(), two_lifts()), st.data())
@settings(max_examples=300, deadline=None)
def test_refine_from_an_individualized_vertex(case, data):
    """An equitable partition with one vertex v individualized refines from
    the splitter [v] alone, to the cells the full queue gives, in order.
    Most random graphs refine to a discrete partition; their 2-lifts never
    do."""
    adj, cells, perm = case
    parent, _ = _refine(cells, adj)
    open_cells = [i for i, c in enumerate(parent) if len(c) > 1]
    assume(open_cells)
    t = data.draw(st.sampled_from(open_cells))
    v = data.draw(st.sampled_from(parent[t]))
    child = (parent[:t] + [[v]] + [[x for x in parent[t] if x != v]]
             + parent[t + 1:])
    assert_coarsest_equitable(adj, child, perm, [[v]])


def symplectic_cover_aut_order(q: int, m: int) -> int:
    """|Aut TS(q, m)| = q^(2m+1) |ΓGSp(2m, q)|, q = p^e: the translations
    and covering shifts, times the semilinear symplectic similitudes,
    e (q - 1) |Sp(2m, q)| with |Sp(2m, q)| = q^(m^2) prod (q^(2i) - 1)
    (Taylor, The Geometry of the Classical Groups, 1992, ch. 8)."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 1
    while p ** e != q:
        e += 1
    sp = q ** (m * m)
    for i in range(1, m + 1):
        sp *= q ** (2 * i) - 1
    return q ** (2 * m + 1) * e * (q - 1) * sp


@pytest.mark.parametrize("q, m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2),
                                  (3, 2)])
def test_symplectic_cover_aut_order(q, m):
    expected = {(2, 1): 48, (3, 1): 1296, (4, 1): 23_040, (5, 1): 60_000,
                (2, 2): 23_040, (3, 2): 25_194_240}[q, m]
    assert symplectic_cover_aut_order(q, m) == expected
    g = relabelled(thas_somma(q, m), 10 * q + m)
    assert automorphism_group(g).order() == expected


def test_symplectic_cover_aut_order_past_512_vertices():
    """TS(9, 1) has 729 vertices, past the search's former bound."""
    g = relabelled(thas_somma(9, 1), 91)
    assert automorphism_group(g).order() == symplectic_cover_aut_order(9, 1)
    assert symplectic_cover_aut_order(9, 1) == 8_398_080


def test_search_bound_is_the_graph_layer_type():
    assert autgroup.SizeBoundExceeded is graphcore.SizeBoundExceeded
    assert issubclass(graphcore.SizeBoundExceeded, ValueError)
    n = autgroup.AUT_VERTEX_BOUND + 1
    with pytest.raises(graphcore.SizeBoundExceeded, match="exceed bound"):
        automorphism_generators(np.zeros((n, n), dtype=bool))


def test_colouring_must_have_one_colour_per_vertex():
    """A short colouring used to give no generators, a long one IndexError."""
    a = hexagon().adjacency_matrix()
    for colors in ([0] * 5, [0] * 7):
        with pytest.raises(ValueError, match=f"{len(colors)} colours for 6"):
            automorphism_generators(a, colors)
    assert automorphism_group(a, [0] * 6).order() == 12


@pytest.mark.parametrize("q, m, seed, digest", [
    (9, 1, 91,
     "eb1e414672f153123ef84cdef094624ba8910a8c5d31486246dd82f31589eb98"),
    (4, 2, 42,
     "a339fba63144be620e0772b05af7b72e42a138cbc3c42f46960eb31e57d1813b"),
])
def test_search_output_pinned_past_the_corpus(q, m, seed, digest):
    """SHA-256 of the generators' images, then the base, as JSON, on
    relabelled TS(9, 1) and TS(4, 2).  The digests were recorded from the
    search whose refinement processed every splitter."""
    gens = automorphism_generators(
        relabelled(thas_somma(q, m), seed).adjacency_matrix())
    payload = json.dumps([[list(x.img) for x in gens], list(gens.base)])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def assert_chain_matches_schreier_sims(aut, seed: int):
    """aut's chain, read off the search's first-path base, against the
    deterministic Schreier-Sims chain of the same generators hinted with the
    same base.  At every level the two have the same base point and orbit,
    and each tail (a pointwise stabilizer of a base prefix) has the same
    members: draws from either chain's tail, random permutations of the
    domain, and random permutations fixing the prefix."""
    oracle = PermGroup(aut.generators, aut.degree, base_hint=aut.base)
    assert oracle.base == aut.base
    n = aut.degree
    rng = random.Random(seed)
    for k in range(len(aut.base) + 1):
        mine, theirs = aut.stabilizer(k), oracle.stabilizer(k)
        assert mine.order() == theirs.order()
        if k < len(aut.base):
            assert mine.transversal().keys() == theirs.transversal().keys()
        for a, b in ((mine, theirs), (theirs, mine)):
            draws = a.random_elements(seed)
            assert all(next(draws) in b for _ in range(10))
        rest = [x for x in range(n) if x not in aut.base[:k]]
        for _ in range(10):
            img = rng.sample(range(n), n)
            assert (Permutation(img) in mine) == (Permutation(img) in theirs)
            img = list(range(n))
            for x, y in zip(rest, rng.sample(rest, len(rest))):
                img[x] = y
            assert (Permutation(img) in mine) == (Permutation(img) in theirs)


def test_search_chain_matches_schreier_sims_on_the_corpus(corpus):
    """The corpus and three seeded relabellings of each cover in it."""
    for name, g in corpus.items():
        for seed in (0, 1, 2, 3):
            h = relabelled(g, seed) if seed else g
            assert_chain_matches_schreier_sims(automorphism_group(h), seed)


def test_incremental_search_matches_the_full_queue_search(corpus,
                                                          monkeypatch):
    """The same generators, in order, and the same base as the search run
    with full_queue_refine, on the corpus under seeds 0-3 and on relabelled
    TS(2, 2) and TS(3, 2)."""
    graphs = [relabelled(g, seed) if seed else g
              for g in corpus.values() for seed in (0, 1, 2, 3)]
    graphs += [relabelled(thas_somma(2, 2), 22),
               relabelled(thas_somma(3, 2), 32)]
    mine = [automorphism_generators(g.adjacency_matrix()) for g in graphs]
    monkeypatch.setattr(autgroup, "_refine", full_queue_refine)
    for g, gens in zip(graphs, mine):
        theirs = automorphism_generators(g.adjacency_matrix())
        assert gens == theirs and gens.base == theirs.base


@st.composite
def coloured_graphs(draw):
    """(0/1 adjacency matrix, vertex colouring) on up to 12 vertices."""
    n = draw(st.integers(1, 12))
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for w in range(u + 1, n):
            if draw(st.booleans()):
                adj[u, w] = adj[w, u] = True
    colours = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return adj, colours


@given(coloured_graphs(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_search_chain_matches_schreier_sims_on_coloured_graphs(case, seed):
    adj, colours = case
    assert_chain_matches_schreier_sims(automorphism_group(adj, colours),
                                       seed)
