"""Graph automorphism search by individualization and partition refinement.

The graph is given as its 0/1 adjacency matrix, which each search packs
once into bit rows, int row u with bit w set iff uw is an edge: the form
the refinement's splitter counts read, and the one place in the library
that holds it.  Refinement is a splitter worklist
(McKay and Piperno, Practical graph isomorphism II, JSC 2014): a FIFO queue
of splitters splits each non-singleton cell by its vertices' neighbour
counts in the splitter, in place and in increasing key order, and queues
its parts, until the partition is equitable.  The last part of each split
is queued as a placeholder that only advances the step count when popped,
since by then it can split nothing: the queue is FIFO, so the split cell
C's own entry and the split's earlier parts have been popped before it,
every cell's count into each of them is constant, and so is its count into
C less theirs.  (The largest part is the textbook choice, but skipping it
would change the splitter order.)  A splitter visits only the
non-singleton cells: it adds its rows, once, into bit planes of the counts
(bit x of plane j is bit j of x's count), skips every cell that each plane
misses or covers, and counts keys only in the cells it splits.  The
root's queue is seeded with its input cells.  The search then
individualizes a vertex v of the first non-singleton cell and recurses; the
parent is equitable, so the child's queue is seeded with [v] alone, and it
refines to the cells the full queue would give, in the same order.  Every
leaf labelling is compared with the first leaf's, and a label map becomes a
generator when graphcore.is_automorphism accepts it on the 0/1 matrix the
search was given.  Pruning is twofold: a branch whose refinement trace
differs from the first path's has no equivalent leaf, and candidates in
one orbit of the group found so far (fixing the individualized prefix),
numbered by PermGroup.orbits, are interchangeable.  Traces are label-free
(splitter steps, cell starts, keys and part sizes), so automorphic branches
trace alike and both prunings are sound.  Off the first path a subtree is
abandoned once it yields an automorphism, the usual backjump to the
first-path ancestor.

The first path is explored in full and pruned only by orbits of the group
fixing its prefix, so at each of its nodes the generators fixing the prefix
reach the whole orbit of its choice under the prefix's stabilizer in Aut.
The generators are therefore a strong generating set relative to the
first-path base (McKay 1981; McKay and Piperno 2014), which the search
returns with them, and automorphism_group builds Aut's chain from that base
by orbit closure alone, with no Schreier generator sifted.

Isomorphism of two connected covers is read off the same search, run on
their disjoint union, one block-diagonal matrix: they are isomorphic iff a
generator swaps the two components.  There is no second matching engine.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .graphcore import (CoverGraph, GraphStructureError, SizeBoundExceeded,
                        is_automorphism, reachable_count)
from .perms import PermGroup, Permutation

AUT_VERTEX_BOUND = 4096


def _refine(cells, adj_rows, splitters=None):
    """Equitable refinement by a splitter worklist; returns (cells, trace).

    splitters seeds the FIFO queue and defaults to the input cells.  A
    partition that is equitable but for one individualized vertex v needs
    only [[v]]: a count to C minus v is the count to C, constant on every
    cell, less the count to v.  A split of cell C into parts P1..Pk, in key
    order, queues Pk as a placeholder (None) that only advances step: every
    splitter queued before it has been popped by then, P1..P(k-1) and C's
    own entry among them (C itself or its placeholder, queued when C was
    made; a child's unqueued parent cell is stable from the start, or, for
    T - {v}, once [v] is popped at step 0), so every cell has a constant
    count into C and each Pi, i < k, hence into Pk.  Cells, their order and
    the trace, step numbers included, are those of queueing every part.

    A splitter visits only the non-singleton cells.  It first adds its
    rows into bit planes, bit x of plane j being bit j of x's count, one
    ripple-carry add per row (a singleton's one plane is its row).  A cell
    has one count iff every plane misses or covers it, so only a cell that
    some plane meets in part has its keys counted,
    (adj[x] & splitter).bit_count().

    Trace entries are (splitter step, cell start, ((key, size), ...)), the
    start being the number of vertices in the cells before it.
    """
    n = sum(map(len, cells))
    at = [None] * n  # at[start] is the cell starting there
    live = []  # the non-singleton cells in order, as (start, cell, mask)
    start = 0
    for cell in cells:
        cell = list(cell)
        at[start] = cell
        if len(cell) > 1:
            live.append((start, cell, _mask(cell)))
        start += len(cell)
    queue = deque(cells if splitters is None else splitters)
    trace = []
    step = 0
    while queue and live:
        splitter = queue.popleft()
        if splitter is None:  # a split's last part: it splits no cell
            step += 1
            continue
        smask = 0
        planes = []  # bit x of planes[j] is bit j of x's count
        for u in splitter:
            smask |= 1 << u
            carry = adj_rows[u]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        kept = []
        for entry in live:
            start, cell, mask = entry
            for plane in planes:
                hit = plane & mask
                if hit and hit != mask:
                    break
            else:
                kept.append(entry)
                continue
            counts = [(adj_rows[x] & smask).bit_count() for x in cell]
            keys = sorted(set(counts))
            parts = [[x for x, k in zip(cell, counts) if k == key]
                     for key in keys]
            trace.append((step, start, tuple(zip(keys, map(len, parts)))))
            for part in parts:
                at[start] = part
                if len(part) > 1:
                    kept.append((start, part, _mask(part)))
                start += len(part)
            queue.extend(parts[:-1])
            queue.append(None)
        live = kept
        step += 1
    return [c for c in at if c is not None], tuple(trace)


def _mask(cell) -> int:
    return sum(1 << x for x in cell)


def _bit_rows(a: np.ndarray) -> list[int]:
    """The rows of the 0/1 matrix a as ints, bit w of row u set iff
    a[u, w] != 0: one np.packbits."""
    packed = np.packbits(a, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i:i + width], "little")
            for i in range(0, len(buf), width)]


class SearchGenerators(list):
    """The generators a search found, in order of discovery, with base, its
    first-path base: they are a strong generating set relative to it."""

    __slots__ = ("base",)

    def __init__(self, gens, base):
        super().__init__(gens)
        self.base = base


def automorphism_generators(a, colors=None) -> SearchGenerators:
    """Generators of the automorphism group of the graph with 0/1 adjacency
    matrix a, with the first-path base they strongly generate relative to.

    colors, when given, is a vertex colouring (sequence of ints) that
    automorphisms must preserve, one per vertex: ValueError otherwise.  The
    library passes none; the tests pass fibre indices to find the
    fibre-fixing automorphisms by this search and compare them with
    covering_group's.
    """
    n = len(a)
    if n > AUT_VERTEX_BOUND:
        raise SizeBoundExceeded(f"{n} vertices exceed bound {AUT_VERTEX_BOUND}")
    if colors is not None and len(colors) != n:
        raise ValueError(f"{len(colors)} colours for {n} vertices")
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
    adj_rows = _bit_rows(a)

    def dfs(cells, splitters, depth: int, prefix: list[int],
            on_first_path: bool) -> bool:
        cells, trace = _refine(cells, adj_rows, splitters)
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
            for x, y in zip(first_leaf, leaf):
                img[x] = y
            if img != identity and is_automorphism(a, img):
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
                dfs(child, [[v]], depth + 1, prefix + [v], True)
            else:
                found = dfs(child, [[v]], depth + 1, prefix + [v],
                            on_first_path and v == first_choice_here)
                found_any = found_any or found
                if found and not on_first_path:
                    return True
        return found_any

    dfs(initial, None, 0, [], True)
    return SearchGenerators(gens, first_choices)


def automorphism_group(g: CoverGraph | np.ndarray, colors=None) -> PermGroup:
    """Full automorphism group of a cover (or of a graph given by its 0/1
    adjacency matrix), with its chain on the search's first-path base."""
    a = g._a if isinstance(g, CoverGraph) else g
    gens = automorphism_generators(a, colors)
    return PermGroup.from_base(gens, len(a), gens.base)


def covers_isomorphic(g1: CoverGraph, g2: CoverGraph) -> bool:
    """Whether two connected graphs (covers) are isomorphic.

    Runs the automorphism search on the disjoint union, the block-diagonal
    matrix of the two adjacency matrices, so g2 is relabelled to v..2v-1.
    Both components are connected, so every automorphism fixes them or
    swaps them, and a swap exists iff g1 and g2 are isomorphic.
    The generators found generate the whole group, so a swap exists iff
    some generator sends vertex 0 to a label >= v.  Raises
    GraphStructureError (a ValueError) on a disconnected input and
    SizeBoundExceeded when the union has more than AUT_VERTEX_BOUND
    vertices.
    """
    v = g1.v
    if g2.v != v:
        return False
    if reachable_count(g1._a) != v or reachable_count(g2._a) != v:
        raise GraphStructureError("graph is disconnected")
    union = np.zeros((2 * v, 2 * v), dtype=bool)
    union[:v, :v], union[v:, v:] = g1._a, g2._a
    gens = automorphism_generators(union)
    return any(gen[0] >= v for gen in gens)
