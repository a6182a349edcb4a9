"""Graph automorphism search by individualization and partition refinement.

The graph is given as its 0/1 adjacency matrix, which each search packs
once into bit rows, int row u with bit w set iff uw is an edge: the form
the refinement's splitter counts read, and the one place in the library
that holds it.  Refinement is a splitter worklist
(McKay and Piperno, Practical graph isomorphism II, JSC 2014): a FIFO queue
of splitters splits each non-singleton cell by its vertices' neighbour
counts in the splitter, in place and in increasing key order, and queues
its parts, until the partition is equitable.  A cell splits in one pass:
its vertices go into a dict by key, in cell order, and the parts are the
dict's lists in sorted key order.  The last part of each split
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
one orbit of the group found so far (fixing the individualized prefix) are
interchangeable.  A node reads each candidate's orbit label, the least
point of its orbit, from perms.orbit_labels on the image tuples of the
generators fixing the prefix, with no group built, and skips a candidate
whose label it has tried: the orbit lies in the cell, which those
generators keep, so its least point came first among the candidates, and
was tried, since no orbit found by then held a smaller point.  Traces
are label-free (splitter steps, cell starts, keys and part sizes), so
automorphic branches trace alike and both prunings are sound.  Off the
first path a subtree is abandoned once it yields an automorphism, the
usual backjump to the first-path ancestor.

The first path is one record indexed by depth (the length of the
individualized prefix), its choices and its traces.  Only the initial
descent appends to it, as the first node to reach each depth, and its
choice there is the least candidate; every later node compares its trace
with the record at its depth.  A later node cannot pass the first leaf's
depth: equal traces from equal cell sizes give equal cell sizes, so a node
that matches the record is discrete where the first leaf is.  The
recursion has one call site and returns True only off the first path,
where a found automorphism triggers the backjump.

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

The search has one vertex bound, graphcore.VERTEX_BOUND, the bound every
CoverGraph keeps: a larger matrix, or a union of two covers past it, raises
SizeBoundExceeded before anything is built from it.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .graphcore import (VERTEX_BOUND, CoverGraph, GraphStructureError,
                        SizeBoundExceeded, is_automorphism, reachable_count)
from .perms import PermGroup, Permutation, orbit_labels


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
    some plane meets in part is split, in one pass: each vertex x goes, in
    cell order, into a dict under its key (adj[x] & splitter).bit_count(),
    and the parts are the dict's lists in sorted key order, each part's
    mask one loop over it.

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
            buckets = {}
            for x in cell:
                key = (adj_rows[x] & smask).bit_count()
                part = buckets.get(key)
                if part is None:
                    buckets[key] = [x]
                else:
                    part.append(x)
            keys = sorted(buckets)
            parts = [buckets[key] for key in keys]
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
    mask = 0
    for x in cell:
        mask |= 1 << x
    return mask


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
    if n > VERTEX_BOUND:
        raise SizeBoundExceeded(f"{n} vertices exceed bound {VERTEX_BOUND}")
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
    first_traces: list[tuple] = []  # the first path's traces, by depth
    gens: list[Permutation] = []
    identity = list(range(n))
    adj_rows = _bit_rows(a)

    def dfs(cells, splitters, prefix: list[int], on_first_path: bool) -> bool:
        cells, trace = _refine(cells, adj_rows, splitters)
        depth = len(prefix)
        if depth == len(first_traces):  # the initial descent
            first_traces.append(trace)
        elif trace != first_traces[depth]:
            return False

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
        if depth == len(first_choices):
            first_choices.append(candidates[0])
        label = None
        label_stamp = 0  # len(gens) when label was read
        tried = set()
        for v in candidates:
            if gens:
                if label_stamp != len(gens):
                    label = orbit_labels([g.img for g in gens
                                          if all(g[p] == p for p in prefix)],
                                         n)
                    label_stamp = len(gens)
                if label[v] in tried:
                    continue
            tried.add(v)
            child = (cells[:tgt] + [[v]]
                     + [[x for x in cells[tgt] if x != v]] + cells[tgt + 1:])
            if (dfs(child, [[v]], prefix + [v],
                    on_first_path and v == first_choices[depth])
                    and not on_first_path):
                return True
        return False

    dfs(initial, None, [], True)
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
    SizeBoundExceeded, before anything is built, when the union has more
    than VERTEX_BOUND vertices, and GraphStructureError (a ValueError) on
    a disconnected input.
    """
    v = g1.v
    if g2.v != v:
        return False
    if 2 * v > VERTEX_BOUND:
        raise SizeBoundExceeded(f"{2 * v} vertices exceed bound "
                                f"{VERTEX_BOUND}")
    if reachable_count(g1._a) != v or reachable_count(g2._a) != v:
        raise GraphStructureError("graph is disconnected")
    union = np.zeros((2 * v, 2 * v), dtype=bool)
    union[:v, :v], union[v:, v:] = g1._a, g2._a
    gens = automorphism_generators(union)
    return any(gen[0] >= v for gen in gens)
