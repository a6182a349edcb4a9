"""Graph automorphism search by individualization and partition refinement.

The graph is held only as bit rows.  Refinement is a splitter worklist
(McKay and Piperno, Practical graph isomorphism II, JSC 2014): a FIFO queue
of cells, seeded with the input cells, splits each non-singleton cell by
(adj[u] & splitter).bit_count(), in place and in increasing key order, and
queues every part, until the partition is equitable.  The search then
individualizes a vertex of the first non-singleton cell and recurses.  Every
leaf labelling is compared with the first leaf's, and a label map sending
each edge of the bit rows to an edge becomes a generator.  Pruning is
twofold: a branch whose refinement trace differs from the first path's has
no equivalent leaf, and candidates in one orbit of the group found so far
(fixing the individualized prefix), numbered by PermGroup.orbits, are
interchangeable.  Traces are label-free (splitter steps, cell positions,
keys and part sizes), so automorphic branches trace alike and both
prunings are sound.  Off the first path a subtree is abandoned once it
yields an automorphism, the usual backjump to the first-path ancestor.

The first path is explored in full and pruned only by orbits of the group
fixing its prefix, so at each of its nodes the generators fixing the prefix
reach the whole orbit of its choice under the prefix's stabilizer in Aut.
The generators are therefore a strong generating set relative to the
first-path base (McKay 1981; McKay and Piperno 2014), which the search
returns with them, and automorphism_group builds Aut's chain from that base
by orbit closure alone, with no Schreier generator sifted.

Isomorphism of two connected covers is read off the same search, run on
their disjoint union: they are isomorphic iff a generator swaps the two
components.  There is no second matching engine.
"""
from __future__ import annotations

from collections import deque

from .graphcore import CoverGraph, _bits, distance_classes
from .perms import PermGroup, Permutation

AUT_VERTEX_BOUND = 512


class SizeBoundExceeded(ValueError):
    pass


def _refine(cells, adj_rows):
    """Equitable refinement by a splitter worklist; returns (cells, trace).

    Trace entries are (splitter step, cell position, ((key, size), ...)).
    """
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


class SearchGenerators(list):
    """The generators a search found, in order of discovery, with base, its
    first-path base: they are a strong generating set relative to it."""

    __slots__ = ("base",)

    def __init__(self, gens, base):
        super().__init__(gens)
        self.base = base


def automorphism_generators(adj_rows, colors=None) -> SearchGenerators:
    """Generators of the automorphism group of a graph given as bit rows,
    with the first-path base they strongly generate relative to.

    colors, when given, is a vertex colouring (sequence of ints) that
    automorphisms must preserve.  The library passes none; the tests pass
    fibre indices to find the fibre-fixing automorphisms by this search
    and compare them with covering_group's.
    """
    n = len(adj_rows)
    if n > AUT_VERTEX_BOUND:
        raise SizeBoundExceeded(f"{n} vertices exceed bound {AUT_VERTEX_BOUND}")
    if n == 0:
        return SearchGenerators([], [])
    if colors is None:
        initial = [list(range(n))]
    else:
        buckets: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            buckets.setdefault(c, []).append(v)
        initial = [buckets[c] for c in sorted(buckets)]

    first_leaf: list[int] = []
    first_choices: list[int] = []
    first_traces: dict[int, tuple] = {}
    gens: list[Permutation] = []
    identity = list(range(n))

    def is_automorphism(img) -> bool:
        return all(adj_rows[img[u]] >> img[w] & 1
                   for u in range(n) for w in _bits(adj_rows[u]))

    def dfs(cells, depth: int, prefix: list[int], on_first_path: bool) -> bool:
        cells, trace = _refine(cells, adj_rows)
        if depth in first_traces:
            if trace != first_traces[depth]:
                return False
        elif on_first_path:
            first_traces[depth] = trace

        tgt = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if tgt < 0:
            leaf = [c[0] for c in cells]
            if not first_leaf:
                first_leaf.extend(leaf)
                return False
            img = [0] * n
            for a, b in zip(first_leaf, leaf):
                img[a] = b
            if img != identity and is_automorphism(img):
                gens.append(Permutation(img))
                return True
            return False

        candidates = sorted(cells[tgt])
        found_any = False
        first_choice_here = (first_choices[len(prefix)]
                             if len(prefix) < len(first_choices) else None)
        orbit_id = None
        orbit_stamp = -1
        for v in candidates:
            if gens and first_leaf:
                if orbit_stamp != len(gens):
                    keep = [g for g in gens if all(g[p] == p for p in prefix)]
                    orbit_id = [0] * n
                    for i, orb in enumerate(PermGroup(keep, n).orbits()):
                        for x in orb:
                            orbit_id[x] = i
                    orbit_stamp = len(gens)
                if any(orbit_id[v] == orbit_id[w] for w in candidates if w < v):
                    continue
            child = (cells[:tgt] + [[v]]
                     + [[x for x in cells[tgt] if x != v]] + cells[tgt + 1:])
            if on_first_path and not first_leaf:
                # initial descent: v becomes the first-path choice at this level
                first_choices.append(v)
                first_choice_here = v
                dfs(child, depth + 1, prefix + [v], True)
            else:
                found = dfs(child, depth + 1, prefix + [v],
                            on_first_path and v == first_choice_here)
                found_any = found_any or found
                if found and not on_first_path:
                    return True
        return found_any

    dfs(initial, 0, [], True)
    return SearchGenerators(gens, first_choices)


def automorphism_group(g: CoverGraph | list, colors=None) -> PermGroup:
    """Full automorphism group of a cover (or of raw bit-row adjacency),
    with its chain on the search's first-path base."""
    adj = g.adj if isinstance(g, CoverGraph) else g
    gens = automorphism_generators(adj, colors)
    return PermGroup.from_base(gens, len(adj), gens.base)


def covers_isomorphic(g1: CoverGraph, g2: CoverGraph) -> bool:
    """Whether two connected graphs (covers) are isomorphic.

    Runs the automorphism search on the disjoint union, g2 relabelled to
    v..2v-1.  Both components are connected, so every automorphism fixes
    them or swaps them, and a swap exists iff g1 and g2 are isomorphic.
    The generators found generate the whole group, so a swap exists iff
    some generator sends vertex 0 to a label >= v.  Raises
    GraphStructureError (a ValueError) on a disconnected input and
    SizeBoundExceeded when the union has more than AUT_VERTEX_BOUND
    vertices.
    """
    v = g1.v
    if g2.v != v:
        return False
    for g in (g1, g2):
        distance_classes(g, 0)
    gens = automorphism_generators([*g1.adj, *(a << v for a in g2.adj)])
    return any(gen[0] >= v for gen in gens)
