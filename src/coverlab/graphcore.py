"""Graphs with fibre partitions and full verification of the cover axioms.

A CoverGraph is an undirected graph on 0..v-1 whose vertex set is split into
n fibres of equal size r >= 2.  verify_cover checks the defining axioms
combinatorially: connectivity, fibres are cocliques, any two fibres induce a
perfect matching, non-adjacent cross-fibre pairs have a constant number mu of
common neighbours, and adjacent pairs have lambda = n - (r-1)mu - 2 of them.
These axioms fix every distance, so no further BFS is needed: vertices in
one fibre are at distance 3, and cross-fibre pairs at distance 1 or 2
(mu >= 1).  The diameter is 3 and the fibres are the distance-3 classes.
Adjacency is stored as bit rows; bit_matrix unpacks them into the 0/1
matrix A, and the axioms are read off two BLAS products: neighbour counts
per fibre are entries of A·F (F the fibre indicator), and common-neighbour
counts are entries of A·A.  A passing report is recorded on the graph,
which never changes after construction; cover_report hands it to later
stages so that each graph is verified once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .exact import QuadExt
from .params import CoverParams, derive_params


class GraphStructureError(ValueError):
    """Malformed input (bad partition, unknown vertex), not an axiom failure."""


# float32 holds every integer up to 2^24 exactly; verify_cover's products sum
# 0/1 terms, so each partial sum is at most the largest degree
FLOAT32_EXACT = 2 ** 24


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str = ""

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness),
                "detail": self.detail}


@dataclass
class CoverReport:
    is_cover: bool
    n: int
    r: int
    mu: int | None
    lam: int | None
    failures: list[Violation] = field(default_factory=list)
    antipodality_confirmed: bool = False
    diameter: int | None = None

    def to_json(self) -> dict:
        return {
            "is_cover": self.is_cover, "n": self.n, "r": self.r,
            "mu": self.mu, "lambda": self.lam,
            "failures": [f.to_json() for f in self.failures],
            "antipodality_confirmed": self.antipodality_confirmed,
            "diameter": self.diameter,
        }


class CoverGraph:
    """Immutable graph plus fibre partition, vertices 0..v-1.

    Fibres are canonicalised on construction: each fibre sorted ascending,
    fibres ordered by minimum element.  The constructor checks only the
    partition structure and the edge list: vertex labels are ints (numpy
    integers too, never bools, floats or strings), endpoints lie in 0..v-1
    and there are no loops.  The cover axioms (including fibres being
    cocliques) are the business of verify_cover, so invalid candidates can
    be built and then diagnosed.  verify_cover records a passing report on
    the graph, and covering_group K with its kernel_info.  The edges are
    held as one (m, 2) array, which to_json, relabelled and
    character_matrix read; the edges property builds the tuple of pairs
    only when first read, and only toggled reads it.
    """

    __slots__ = ("v", "n", "r", "fibres", "adj", "fibre_of", "_pairs",
                 "_edges", "_report", "_kernel", "_params")

    def __init__(self, fibres, edges, vertex_count: int | None = None):
        fibres = [sorted(_label(x, "fibre") for x in f) for f in fibres]
        fibres.sort(key=lambda f: f[0] if f else -1)
        seen: set[int] = set()
        for f in fibres:
            for x in f:
                if x in seen:
                    raise GraphStructureError(f"vertex {x} in two fibres")
                seen.add(x)
        v = (_label(vertex_count, "vertex count") if vertex_count is not None
             else (max(seen) + 1 if seen else 0))
        # the count first: set(range(v)) of a huge v from a file is never built
        if v != len(seen) or seen != set(range(v)):
            raise GraphStructureError("fibres do not partition 0..v-1")
        if not fibres:
            raise GraphStructureError("empty fibre list")
        r = len(fibres[0])
        if any(len(f) != r for f in fibres):
            raise GraphStructureError("fibres have unequal sizes")
        if r < 2:
            raise GraphStructureError(f"fibre size must be >= 2, got {r}")
        n = len(fibres)
        if n < 3:
            raise GraphStructureError(f"need at least 3 fibres, got {n}")

        pairs = _edge_array(edges, v)
        a = np.zeros((v, v), dtype=bool)
        a[pairs[:, 0], pairs[:, 1]] = True
        a[pairs[:, 1], pairs[:, 0]] = True
        packed = np.packbits(a, axis=1, bitorder="little")

        self.v = v
        self.n = n
        self.r = r
        self.fibres = tuple(tuple(f) for f in fibres)
        self.adj = tuple(int.from_bytes(row, "little") for row in packed)
        fo = [0] * v
        for i, f in enumerate(self.fibres):
            for x in f:
                fo[x] = i
        self.fibre_of = tuple(fo)
        # the edges u < w in row-major order, as one (m, 2) array
        self._pairs = np.argwhere(np.triu(a, 1))
        self._edges: tuple | None = None
        self._report: CoverReport | None = None
        self._kernel: tuple | None = None
        self._params: CoverParams | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, w), u < w, sorted; built on first read, with one
        shared int object per vertex."""
        if self._edges is None:
            label = list(range(self.v)).__getitem__
            us, ws = self._pairs.T.tolist()
            self._edges = tuple(zip(map(label, us), map(label, ws)))
        return self._edges

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbours(self, u: int) -> list[int]:
        return _bits(self.adj[u])

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] >> w & 1)

    def adjacency_matrix(self) -> np.ndarray:
        """The 0/1 adjacency matrix, dtype uint8 (see bit_matrix)."""
        return bit_matrix(self.adj, self.v)

    def toggled(self, u: int, w: int) -> "CoverGraph":
        """Copy with the adjacency of the pair (u, w) flipped."""
        if u == w:
            raise GraphStructureError("cannot toggle a loop")
        e = set(self.edges)
        pair = (u, w) if u < w else (w, u)
        if pair in e:
            e.remove(pair)
        else:
            e.add(pair)
        return CoverGraph(self.fibres, e, self.v)

    def relabelled(self, perm) -> "CoverGraph":
        """Image of the graph under a vertex permutation (perm[u] = new label)."""
        fibres = [[perm[x] for x in f] for f in self.fibres]
        images = np.array([perm[x] for x in range(self.v)])
        return CoverGraph(fibres, images[self._pairs], self.v)

    # -- file format ---------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical form: u < w, edges sorted, fibres sorted by minimum."""
        return {"v": self.v,
                "fibres": [list(f) for f in self.fibres],
                "edges": self._pairs.tolist()}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(obj) -> "CoverGraph":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            return CoverGraph(obj["fibres"], obj["edges"], obj["v"])
        except KeyError as exc:
            raise GraphStructureError(f"missing key {exc}") from exc


def _is_label(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _label(x, what: str) -> int:
    if not _is_label(x):
        raise GraphStructureError(f"{what} label {x!r} is not an integer")
    return int(x)


def _edge_array(edges, v: int) -> np.ndarray:
    """The edge list as an (m, 2) integer array, validated in one pass.

    GraphStructureError names the first bad edge in input order: one with a
    label that is not an integer (bools included), an endpoint outside
    0..v-1, or a loop.  An integer array is taken as it is; a list has its
    label types read in one sweep, and only when that finds a bad label are
    the edges before it checked on their own, so that an earlier bad edge
    is the one named.
    """
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"):
        edges = list(edges)
        if not all(t is not bool and issubclass(t, (int, np.integer))
                   for t in set(map(type, chain.from_iterable(edges)))):
            k = next(i for i, e in enumerate(edges)
                     if not all(map(_is_label, e)))
            _edge_array(edges[:k], v)
            raise GraphStructureError(
                f"edge {tuple(edges[k])!r} has a non-integer label")
    e = np.asarray(edges)
    if e.size == 0:
        return np.zeros((0, 2), dtype=np.intp)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphStructureError("edges must be vertex pairs")
    bad = (e < 0).any(axis=1) | (e >= v).any(axis=1) | (e[:, 0] == e[:, 1])
    if bad.any():
        u, w = (int(x) for x in e[bad.argmax()])
        if not (0 <= u < v and 0 <= w < v):
            raise GraphStructureError(f"edge ({u},{w}) out of range")
        raise GraphStructureError(f"loop at {u}")
    return e.astype(np.intp)


def bit_matrix(rows, width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of rows[i].

    One np.unpackbits over the rows' little-endian bytes.
    """
    nbytes = (width + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    return np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes),
        axis=1, count=width, bitorder="little")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bfs_layers(adj, start: int) -> list[list[int]]:
    """BFS layers from start over bit-row adjacency; stops at the last layer."""
    v = len(adj)
    full = (1 << v) - 1
    seen = 1 << start
    frontier = 1 << start
    layers = [[start]]
    while True:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        nxt &= full & ~seen
        if not nxt:
            return layers
        layers.append(_bits(nxt))
        seen |= nxt
        frontier = nxt


def distance_classes(g: CoverGraph, vertex: int) -> list[list[int]]:
    """Spheres of radius 0, 1, 2, ... around a vertex.

    Raises GraphStructureError on disconnected input; a valid cover yields
    exactly four layers.
    """
    layers = bfs_layers(g.adj, vertex)
    if sum(len(l) for l in layers) != g.v:
        raise GraphStructureError("graph is disconnected")
    return layers


def fibre_masks(g: CoverGraph) -> list[int]:
    """Bit mask of each fibre's vertices, indexed like g.fibres."""
    masks = [0] * g.n
    for i, f in enumerate(g.fibres):
        for x in f:
            masks[i] |= 1 << x
    return masks


def verify_cover(g: CoverGraph, max_violations: int = 10) -> CoverReport:
    """Check the cover axioms, collecting up to max_violations per axiom.

    Always verifies; a passing report is recorded on g for cover_report.
    One BFS checks connectivity.  The other axioms are read off the 0/1
    adjacency matrix A through two float32 BLAS products: M = A·F, with F
    the v x n fibre indicator, counts each vertex's neighbours per fibre
    for (b) and (c), and C = A·A counts common neighbours for (d) and (e).
    Their entries are sums of 0/1 terms, so they are exact while the
    largest degree stays below FLOAT32_EXACT; past it ValueError is raised.
    Witnesses are listed as a scan of the pairs u < w in row-major order
    finds them; for (c), the first vertex of fibre i with a wrong count in
    fibre j, for each pair i < j.
    Once (b)-(e) hold, the distances follow without another BFS:
    same-fibre vertices share no neighbour, since that neighbour would have
    two neighbours in one fibre; cross-fibre non-adjacent pairs are at
    distance 2, since mu >= 1; and u's matched neighbour w in another fibre
    is non-adjacent to u's fibre mates, so each is at distance 2 from w,
    hence at distance 3 from u.  So the diameter is 3 and the fibres are
    the distance-3 classes.
    A cap below 1 raises ValueError: it would record no witness, and the
    verdict is read off the witnesses.
    """
    if max_violations < 1:
        raise ValueError(f"max_violations must be at least 1, got {max_violations}")
    rep = CoverReport(is_cover=False, n=g.n, r=g.r, mu=None, lam=None)

    # (a) connectivity
    layers = bfs_layers(g.adj, 0)
    reached = sum(len(l) for l in layers)
    if reached != g.v:
        rep.failures.append(Violation("connectivity", (0,),
                                      f"only {reached} of {g.v} vertices reachable"))
        return rep

    a = g.adjacency_matrix()
    degree = int(a.sum(axis=1).max())
    if degree >= FLOAT32_EXACT:
        raise ValueError(f"common-neighbour counts reach {degree} >= "
                         f"{FLOAT32_EXACT}, beyond exact float32 arithmetic")
    cap = max_violations
    fibre_of = np.array(g.fibre_of)
    members = np.array(g.fibres)  # members[i, k]: k-th vertex of fibre i
    a32 = a.astype(np.float32)
    f = np.zeros((g.v, g.n), dtype=np.float32)
    f[np.arange(g.v), fibre_of] = 1
    per_fibre = (a32 @ f)[members]  # [i, k, j]: neighbours in fibre j

    # (b) each fibre is a coclique
    own = per_fibre[np.arange(g.n), :, np.arange(g.n)]  # [i, k]
    for i, k in np.argwhere(own != 0)[:cap].tolist():
        u = int(members[i, k])
        w = int(members[i, a[u, members[i]].argmax()])
        rep.failures.append(Violation("fibre-coclique", (u, w),
                                      f"edge inside fibre {i}"))

    # (c) every fibre pair induces a perfect matching
    wrong = per_fibre != 1
    first = wrong.argmax(axis=1)  # [i, j]: first k with a wrong count
    for i, j in np.argwhere(np.triu(wrong.any(axis=1), 1))[:cap].tolist():
        u = int(members[i, first[i, j]])
        d = int(per_fibre[i, first[i, j], j])
        rep.failures.append(Violation(
            "perfect-matching", (u, j),
            f"vertex {u} has {d} neighbours in fibre {j}"))

    if rep.failures:
        return rep

    common = a32 @ a32
    del a32  # v x v temporaries are dropped once used, to bound peak memory

    # (d) constant mu >= 1 over non-adjacent cross-fibre pairs u < w
    pairs = fibre_of[:, None] != fibre_of
    pairs &= a == 0
    pairs = np.triu(pairs, 1)
    mu = None
    if pairs.any():
        x0 = int(pairs.argmax())
        mu, mu_witness = int(common.flat[x0]), divmod(x0, g.v)
        for x in np.flatnonzero(pairs & (common != mu))[:cap].tolist():
            rep.failures.append(Violation(
                "mu-constant", divmod(x, g.v),
                f"{int(common.flat[x])} common neighbours, expected {mu} "
                f"as at {mu_witness}"))
        if mu < 1:
            rep.failures.append(Violation("mu-positive", mu_witness,
                                          f"mu = {mu} < 1"))
    rep.mu = mu
    del pairs

    # (e) adjacent pairs u < w: lambda = n - (r-1)mu - 2
    if mu is not None and not rep.failures:
        lam_expect = g.n - (g.r - 1) * mu - 2
        wrong = np.triu(a, 1) & (common != lam_expect)
        for x in np.flatnonzero(wrong)[:cap].tolist():
            rep.failures.append(Violation(
                "lambda-mismatch", divmod(x, g.v),
                f"{int(common.flat[x])} common neighbours, expected "
                f"n-(r-1)mu-2 = {lam_expect}"))
        if not rep.failures:
            rep.lam = lam_expect

    if rep.failures:
        return rep

    # (b)-(e) fix every distance (see the docstring): diameter 3, and the
    # fibres are the distance-3 classes
    rep.diameter = 3
    rep.antipodality_confirmed = True
    rep.is_cover = True
    g._report = rep
    return rep


def cover_report(g: CoverGraph) -> CoverReport:
    """The passing report recorded on g, or verify_cover(g) if none is."""
    return g._report if g._report is not None else verify_cover(g)


def require_cover(g: CoverGraph) -> CoverReport:
    """cover_report(g), raising GraphStructureError if g is not a cover."""
    rep = cover_report(g)
    if not rep.is_cover:
        raise GraphStructureError(
            f"not a cover: {[f.axiom for f in rep.failures]}")
    return rep


def antipodal_classes(adj) -> list[list[int]]:
    """Partition of a connected diameter-3 graph into antipodal classes.

    Input is a bit-row adjacency (or a CoverGraph, whose fibres are ignored).
    The relation "equal or at distance 3" must be an equivalence; otherwise a
    witness triple is reported.
    """
    if isinstance(adj, CoverGraph):
        adj = adj.adj
    v = len(adj)
    far = []
    for u in range(v):
        layers = bfs_layers(adj, u)
        if sum(len(l) for l in layers) != v:
            raise GraphStructureError("graph is disconnected")
        if len(layers) - 1 != 3:
            raise GraphStructureError(
                f"vertex {u} has eccentricity {len(layers) - 1}, need 3")
        far.append(set(layers[3]))
    classes = []
    assigned = [False] * v
    for u in range(v):
        if assigned[u]:
            continue
        cls = {u} | far[u]
        for x in cls:
            want = cls - {x}
            if far[x] != want:
                y = next(iter(far[x] ^ want))
                raise GraphStructureError(
                    f"distance-3 relation not an equivalence at ({u},{x},{y})")
            assigned[x] = True
        classes.append(sorted(cls))
    classes.sort(key=lambda c: c[0])
    return classes


@dataclass(frozen=True)
class SpectrumReport:
    ok: bool
    failed: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def spectrum_check(g: CoverGraph, p: CoverParams) -> SpectrumReport:
    """Exact check of the four-eigenvalue identity and trace multiplicities.

    Verifies (A - theta I)(A + I)(A - tau I)(A - k I) = 0 over the surd field.
    The two surd factors multiply out to A^2 - (lambda - mu)A - (n-1)I, which
    has integer entries, so every product is one of integer matrices.  The
    products run in float64 through BLAS and are exact: a partial sum of
    X @ Y is an integer of absolute value at most the largest row 1-norm of X
    times the largest entry of Y, and these are bounded from the maximum
    degree of g.  ValueError is raised when the bound reaches 2^53, past
    which float64 no longer holds every integer.
    Then tr(A^m) for m <= 3, read from A^2 as tr(A^2) and sum(A^2 * A), is
    compared with the model spectrum
    k^m + m_theta theta^m + (n-1)(-1)^m + m_tau tau^m, evaluated exactly.
    """
    v = g.v
    k = p.n - 1
    d = max(g.degree(u) for u in range(v))
    # |partial sums| of ((A - kI)(A + I)) @ quad: the left factor's rows
    # have 1-norm <= (d + k)(d + 1), quad's entries are <= d + |lam-mu| + k;
    # A @ A stays below this, and sum(A^2 * A) is <= v d^2
    bound = max((d + k) * (d + 1) * (d + abs(p.lam - p.mu) + k), v * d * d)
    if bound >= 2 ** 53:
        raise ValueError(f"spectrum products reach {bound} >= 2^53, "
                         "beyond exact float64 arithmetic")
    failed = []
    a = g.adjacency_matrix().astype(np.float64)
    a2 = a @ a
    tr = [v, int(np.trace(a)), int(np.trace(a2)), int(np.vdot(a2, a))]
    # (A - kI)(A + I) = A^2 + (1 - k)A - kI, so one product remains; both
    # polynomials in A are built in place, to hold few v x v temporaries
    left = np.multiply(a, 1 - k)
    left += a2
    left.flat[::v + 1] -= k
    quad = np.multiply(a, -(p.lam - p.mu))
    quad += a2
    quad.flat[::v + 1] -= p.n - 1
    del a, a2
    if np.any(left @ quad != 0):
        failed.append("minimal-polynomial")
    if g.v != p.v:
        failed.append("vertex-count")

    expect = [v, 0, p.v * k, p.v * k * p.lam]
    for m, (got, want) in enumerate(zip(tr, expect)):
        if got != want:
            failed.append(f"trace-A^{m}")

    # model spectrum traces, exact in the surd field
    for m in range(4):
        model = (QuadExt(k ** m) + p.m_theta * p.theta ** m
                 + QuadExt((p.n - 1) * (-1) ** m) + p.m_tau * p.tau ** m)
        if model != tr[m]:
            failed.append(f"model-trace-A^{m}")
    return SpectrumReport(ok=not failed, failed=tuple(failed))


def params_of(g: CoverGraph) -> CoverParams:
    """require_cover + derive_params in one step; raises if g is not a cover.

    Derived once per graph: the result is recorded on g."""
    if g._params is None:
        rep = require_cover(g)
        g._params = derive_params(rep.n, rep.r, rep.mu)
    return g._params
