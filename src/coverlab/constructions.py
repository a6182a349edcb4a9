"""Explicit constructors for the classical small covers.

Correctness is established empirically: every constructor's output is meant
to pass verify_cover, which the test suite enforces.  The symplectic-form
construction builds a (q^{2m}, q, q^{2m-1})-cover on V x GF(q) with
V = GF(q)^{2m}; the double-cover constructor turns a Seidel matrix into a
2-cover of K_n (a valid cover exactly when the two-graph is regular).
"""
from __future__ import annotations

from itertools import product

import numpy as np

from .gf import GF
from .graphcore import CoverGraph, antipodal_classes

VERTEX_BOUND = 512


def hexagon() -> CoverGraph:
    """The 6-cycle with antipodal fibres; a (3, 2, 1)-cover."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return CoverGraph([[0, 3], [1, 4], [2, 5]], edges)


def cube() -> CoverGraph:
    """The 3-cube with antipodal-pair fibres; a (4, 2, 2)-cover."""
    edges = [(u, u ^ (1 << i)) for u in range(8) for i in range(3) if u < u ^ (1 << i)]
    fibres = [[b, 7 - b] for b in range(4)]
    return CoverGraph(fibres, edges)


def icosahedron() -> CoverGraph:
    """The icosahedron with antipodal fibres; a (6, 2, 2)-cover.

    Built as the pentagonal antiprism plus two apexes; the fibres are then
    read off as the distance-3 classes.
    """
    edges = []
    for i in range(5):
        up, lo = 1 + i, 6 + i
        edges.append((0, up))
        edges.append((11, lo))
        edges.append((up, 1 + (i + 1) % 5))
        edges.append((lo, 6 + (i + 1) % 5))
        edges.append((up, lo))
        edges.append((up, 6 + (i + 1) % 5))
    adj = [0] * 12
    for u, w in edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    fibres = antipodal_classes(adj)
    return CoverGraph(fibres, edges)


def thas_somma(q: int, m: int = 1) -> CoverGraph:
    """Symplectic-form cover on GF(q)^{2m} x GF(q).

    Vertices are pairs (u, a); (u, a) ~ (v, b) iff u != v and
    b - a = B(u, v) for the standard alternating form
    B(u, v) = sum_i (u_{2i} v_{2i+1} - u_{2i+1} v_{2i}).
    Result is a (q^{2m}, q, q^{2m-1})-cover whose covering group is the
    additive group of GF(q) acting on the second coordinate.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    fld = GF(q)
    dim = 2 * m
    # q >= 2, so a long exponent alone exceeds the bound; the power is taken
    # only for short ones
    if dim + 1 >= VERTEX_BOUND.bit_length() or q ** (dim + 1) > VERTEX_BOUND:
        raise ValueError(f"q^(2m+1) = {q}^{dim + 1} vertices exceed the bound "
                         f"{VERTEX_BOUND}")

    # pairs of points i < j in product order; B is accumulated over the
    # coordinate pairs through the field's tables
    points = np.array(list(product(range(q), repeat=dim))).reshape(-1, dim)
    i, j = np.triu_indices(len(points), 1)
    u, w = points[i], points[j]
    add, neg, mul = fld.add_table, fld.neg_table, fld.mul_table
    form = np.zeros(len(i), dtype=np.intp)
    for k in range(0, dim, 2):
        t1 = mul[u[:, k], w[:, k + 1]]
        t2 = mul[u[:, k + 1], w[:, k]]
        form = add[form, add[t1, neg[t2]]]
    # (i, a) ~ (j, a + B(u_i, u_j)) for every a in GF(q)
    a = np.arange(q)
    edges = np.stack([i[:, None] * q + a, j[:, None] * q + add[a, form[:, None]]],
                     axis=-1).reshape(-1, 2)
    fibres = [[x * q + c for c in range(q)] for x in range(len(points))]
    return CoverGraph(fibres, edges)


def taylor_from_seidel(seidel, convention: int = -1) -> CoverGraph:
    """Double cover of K_n from a Seidel matrix (symmetric, 0 diagonal, +-1).

    Vertices are (sign, i) with fibres {(+, i), (-, i)}, encoded as i and
    n + i; (eps, i) ~ (delta, j) iff i != j and eps*delta = convention * S_ij.
    The default convention -1 makes antipodal pairs non-adjacent; +1 yields
    the complementary-switching cover.
    """
    s = np.asarray(seidel)
    if s.ndim != 2 or not np.issubdtype(s.dtype, np.number):
        raise ValueError("Seidel matrix must be a 2-d array of numbers")
    n = s.shape[0]
    if s.shape != (n, n) or np.any(s != s.T) or np.any(np.diag(s) != 0):
        raise ValueError("Seidel matrix must be symmetric with zero diagonal")
    off = s[~np.eye(n, dtype=bool)]
    if np.any(np.abs(off) != 1):
        raise ValueError("off-diagonal Seidel entries must be +-1")
    if convention not in (-1, +1):
        raise ValueError("convention must be -1 or +1")
    if 2 * n > VERTEX_BOUND:
        raise ValueError(f"{2 * n} vertices exceed the bound {VERTEX_BOUND}")

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            target = convention * int(s[i, j])
            for eps in (+1, -1):
                delta = target * eps  # eps*delta = target
                u = i if eps == 1 else n + i
                w = j if delta == 1 else n + j
                edges.append((u, w))
    fibres = [[i, n + i] for i in range(n)]
    return CoverGraph(fibres, edges)


def seidel_from_cover(g: CoverGraph, convention: int = -1) -> np.ndarray:
    """Seidel matrix read back from a 2-cover via minimum-label base vertices."""
    if g.r != 2:
        raise ValueError("Seidel extraction needs fibre size 2")
    bases = [f[0] for f in g.fibres]
    n = g.n
    s = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            adj = g.has_edge(bases[i], bases[j])
            # base pair adjacent means eps*delta = +1 on that pair
            s[i, j] = s[j, i] = convention * (1 if adj else -1)
    return s


def seidel_of_graph(adj_matrix) -> np.ndarray:
    """Seidel matrix J - I - 2A of an ordinary graph."""
    a = np.asarray(adj_matrix, dtype=int)
    n = a.shape[0]
    return np.ones((n, n), dtype=int) - np.eye(n, dtype=int) - 2 * a


_NAMES = ("hexagon", "icosahedron", "cube", "thas_somma", "taylor_from_seidel")


def build(name: str, **kwargs) -> CoverGraph:
    """Dispatch by construction name (hyphens and underscores both accepted)."""
    key = name.replace("-", "_")
    if key == "hexagon":
        return hexagon()
    if key == "icosahedron":
        return icosahedron()
    if key == "cube":
        return cube()
    if key == "thas_somma":
        return thas_somma(kwargs["q"], kwargs.get("m", 1))
    if key == "taylor_from_seidel":
        return taylor_from_seidel(kwargs["seidel"],
                                  kwargs.get("convention", -1))
    raise ValueError(f"unknown construction {name!r}; known: {_NAMES}")
