"""Explicit constructors for the classical small covers.

Correctness is established empirically: every constructor's output is meant
to pass verify_cover, which the test suite enforces.  An abelian cover of
K_n is fixed by a skew voltage matrix W over its covering group (Godsil and
Hensel, JCTB 56, 1992), and cover_from_voltages builds it.  The
symplectic-form construction, a (q^{2m}, q, q^{2m-1})-cover on
GF(q)^{2m} x GF(q), and the double cover of a Seidel matrix (a valid 2-cover
of K_n exactly when the two-graph is regular) hand it their W.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from .gf import GF
from .graphcore import VERTEX_BOUND, CoverGraph, SizeBoundExceeded


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

    Built as the pentagonal antiprism plus two apexes: apex 0 over the
    upper ring 1..5, apex 11 under the lower ring 6..10, and upper 1 + i
    adjacent to lower 6 + i and 6 + (i + 1) % 5.  The antipode of 1 + i is
    the lower vertex opposite it, 6 + (i + 3) % 5.
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
    fibres = [[0, 11]] + [[1 + i, 6 + (i + 3) % 5] for i in range(5)]
    return CoverGraph(fibres, edges)


def cover_from_voltages(voltages, add) -> CoverGraph:
    """The abelian cover of K_n with voltage matrix W over a group K.

    add is K's addition table on its elements 0..r-1, 0 the identity: Z_r's,
    or GF(q).add_table.  Vertex (i, a) is labelled i*r + a, the fibres are
    {i*r, ..., i*r + r - 1}, and (i, a) ~ (j, a + W_ij) for i != j.  W must
    be a square integer matrix over K with a zero diagonal and
    W_ji = -W_ij; the vertex bound is checked before the entries are read.
    """
    w, add = np.asarray(voltages), np.asarray(add)
    square = w.ndim == 2 and w.shape[0] == w.shape[1]
    if not (square and np.issubdtype(w.dtype, np.integer)):
        raise ValueError("voltages must be a square integer matrix")
    n, r = len(w), len(add)
    if n * r > VERTEX_BOUND:
        raise SizeBoundExceeded(f"{n * r} vertices exceed the bound "
                                f"{VERTEX_BOUND}")
    if np.any((w < 0) | (w >= r)):
        raise ValueError(f"voltages must lie in 0..{r - 1}")
    if np.any(np.diag(w) != 0) or np.any(add[w, w.T] != 0):
        raise ValueError("voltages need a zero diagonal and W_ji = -W_ij")
    i, j = np.triu_indices(n, 1)
    a = np.arange(r)
    edges = np.stack([i[:, None] * r + a, j[:, None] * r + add[a, w[i, j, None]]],
                     axis=-1).reshape(-1, 2)
    return CoverGraph(np.arange(n * r).reshape(n, r).tolist(), edges)


def thas_somma(q: int, m: int = 1) -> CoverGraph:
    """Symplectic-form cover on GF(q)^{2m} x GF(q).

    Vertices are pairs (u, a); (u, a) ~ (v, b) iff u != v and
    b - a = B(u, v) for the standard alternating form
    B(u, v) = sum_i (u_{2i} v_{2i+1} - u_{2i+1} v_{2i}).
    Result is a (q^{2m}, q, q^{2m-1})-cover whose covering group is the
    additive group of GF(q) acting on the second coordinate: the voltage
    cover of W_ij = B(u_i, u_j), with the points u_i in product order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = 2 * m
    # the bound comes before the field's own checks; for q >= 2 a long
    # exponent alone exceeds it, and the power is taken only for short ones
    if q >= 2 and (dim + 1 >= VERTEX_BOUND.bit_length()
                   or q ** (dim + 1) > VERTEX_BOUND):
        raise SizeBoundExceeded(f"q^(2m+1) = {q}^{dim + 1} vertices exceed "
                                f"the bound {VERTEX_BOUND}")
    fld = GF(q)

    # B over all pairs of points, accumulated over the coordinate pairs
    # through the field's tables
    points = np.array(list(product(range(q), repeat=dim))).reshape(-1, dim)
    u, v = points[:, None, :], points[None, :, :]
    add, neg, mul = fld.add_table, fld.neg_table, fld.mul_table
    form = np.zeros((len(points), len(points)), dtype=np.intp)
    for k in range(0, dim, 2):
        t1 = mul[u[..., k], v[..., k + 1]]
        t2 = mul[u[..., k + 1], v[..., k]]
        form = add[form, add[t1, neg[t2]]]
    return cover_from_voltages(form, add)


def taylor_from_seidel(seidel, convention: int = -1) -> CoverGraph:
    """Double cover of K_n from a Seidel matrix (symmetric, 0 diagonal, +-1).

    Vertices are (i, a) with a in Z2, labelled 2i + a, with fibres
    {2i, 2i + 1}; (i, a) ~ (j, b) iff i != j and
    (-1)^(a+b) = convention * S_ij.  This is the voltage cover of
    W_ij = (1 - convention * S_ij) / 2 over Z2.  S = S^T is checked here,
    and an asymmetric S is refused with the first (i, j) in row-major
    order where S_ij != S_ji.  The default convention -1 makes antipodal
    pairs non-adjacent; +1 yields the complementary-switching cover.
    """
    s = np.asarray(seidel)
    if s.ndim != 2 or not np.issubdtype(s.dtype, np.number):
        raise ValueError("Seidel matrix must be a 2-d array of numbers")
    if convention not in (-1, +1):
        raise ValueError("convention must be -1 or +1")
    n = s.shape[0]
    off = ~np.eye(n, dtype=bool)
    if s.shape != (n, n) or np.any(s[~off] != 0) or np.any(np.abs(s[off]) != 1):
        raise ValueError("Seidel matrix must be square with zero diagonal "
                         "and +-1 off it")
    asymmetric = np.argwhere(s != s.T)
    if asymmetric.size:
        i, j = asymmetric[0].tolist()
        raise ValueError(f"Seidel matrix must be symmetric: S_ij = "
                         f"{s[i, j]} but S_ji = {s[j, i]} at (i, j) = "
                         f"({i}, {j})")
    return cover_from_voltages((convention * s == -1).astype(np.intp),
                               np.array([[0, 1], [1, 0]]))


def seidel_of_graph(adj_matrix) -> np.ndarray:
    """Seidel matrix J - I - 2A of an ordinary graph."""
    a = np.asarray(adj_matrix, dtype=int)
    n = a.shape[0]
    return np.ones((n, n), dtype=int) - np.eye(n, dtype=int) - 2 * a

