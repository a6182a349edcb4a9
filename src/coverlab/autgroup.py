"""Graph automorphism search by individualization and partition refinement.

The search tree refines an ordered partition until equitable, then
individualizes a vertex from the first non-singleton cell and recurses.
Leaves are discrete partitions; the labelling of every later leaf is compared
with the first leaf, and edge-preserving label maps become generators.
Pruning is deterministic and twofold: branches whose refinement trace differs
from the first path's cannot contain equivalent leaves, and candidates in one
orbit of the already-found group (stabilizing the individualized prefix) are
interchangeable.  Refinement is vertex-label-free (cells are processed
positionally, split keys are adjacency counts), so automorphic branches
produce identical traces and both prunings are sound.  Off the first path a
subtree is abandoned as soon as it contributes one automorphism, which is the
usual backjump to the first-path ancestor.

Isomorphism of two connected covers is read off the same search, run on
their disjoint union: they are isomorphic iff a generator swaps the two
components.  There is no second matching engine.
"""
from __future__ import annotations

import numpy as np

from .graphcore import CoverGraph, distance_classes
from .perms import PermGroup, Permutation

AUT_VERTEX_BOUND = 512


class SizeBoundExceeded(ValueError):
    pass


def _refine(cells, amat):
    """Equitable refinement; returns (cells, trace), trace is label-free."""
    cells = [list(c) for c in cells]
    trace = []
    changed = True
    while changed:
        changed = False
        for w_idx in range(len(cells)):
            w_members = cells[w_idx]
            for c_idx, cell in enumerate(cells):
                if len(cell) <= 1:
                    continue
                counts = amat[np.ix_(cell, w_members)].sum(axis=1)
                keys = sorted(set(int(k) for k in counts))
                if len(keys) > 1:
                    parts = [[v for v, k in zip(cell, counts) if k == key]
                             for key in keys]
                    cells[c_idx:c_idx + 1] = parts
                    trace.append((w_idx, c_idx,
                                  tuple((k, len(p)) for k, p in zip(keys, parts))))
                    changed = True
                    break
            if changed:
                break
    return cells, tuple(trace)


def _first_nonsingleton(cells) -> int:
    for i, c in enumerate(cells):
        if len(c) > 1:
            return i
    return -1


def _prefix_stabilizer_orbits(gens, prefix, n: int) -> list[int]:
    """Orbit representative per vertex under <gens fixing prefix pointwise>."""
    keep = [g for g in gens if all(g[p] == p for p in prefix)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in keep:
        for x in range(n):
            a, b = find(x), find(g[x])
            if a != b:
                parent[a] = b
    return [find(x) for x in range(n)]


def automorphism_generators(adj_rows, colors=None) -> list[Permutation]:
    """Generators of the automorphism group of a graph given as bit rows.

    colors, when given, is a vertex colouring (sequence of ints) that
    automorphisms must preserve; the fibre-wise search passes fibre indices.
    """
    n = len(adj_rows)
    if n > AUT_VERTEX_BOUND:
        raise SizeBoundExceeded(f"{n} vertices exceed bound {AUT_VERTEX_BOUND}")
    if n == 0:
        return []
    amat = np.zeros((n, n), dtype=np.int16)
    for u in range(n):
        row = adj_rows[u]
        while row:
            low = row & -row
            amat[u, low.bit_length() - 1] = 1
            row ^= low

    if colors is None:
        initial = [list(range(n))]
    else:
        buckets: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            buckets.setdefault(c, []).append(v)
        initial = [buckets[c] for c in sorted(buckets)]

    directed_edges = {(u, w) for u in range(n) for w in range(n) if amat[u, w]}
    first_leaf: list[int] = []
    first_choices: list[int] = []
    first_traces: dict[int, tuple] = {}
    gens: list[Permutation] = []
    identity = list(range(n))

    def is_automorphism(img) -> bool:
        return all((img[u], img[w]) in directed_edges
                   for (u, w) in directed_edges)

    def dfs(cells, depth: int, prefix: list[int], on_first_path: bool) -> bool:
        cells, trace = _refine(cells, amat)
        if depth in first_traces:
            if trace != first_traces[depth]:
                return False
        elif on_first_path:
            first_traces[depth] = trace

        tgt = _first_nonsingleton(cells)
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
                    orbit_id = _prefix_stabilizer_orbits(gens, prefix, n)
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
    return gens


def automorphism_group(g: CoverGraph | list, colors=None) -> PermGroup:
    """Full automorphism group of a cover (or of raw bit-row adjacency)."""
    adj = g.adj if isinstance(g, CoverGraph) else g
    gens = automorphism_generators(adj, colors)
    return PermGroup(gens, len(adj))


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
