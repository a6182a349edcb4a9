"""Graphs with fibre partitions and full verification of the cover axioms.

A CoverGraph is an undirected graph on 0..v-1 whose vertex set is split into
n fibres of equal size r >= 2.  verify_cover checks the defining axioms
combinatorially: connectivity, fibres are cocliques, any two fibres induce a
perfect matching, non-adjacent cross-fibre pairs have a constant number mu of
common neighbours, and adjacent pairs have lambda = n - (r-1)mu - 2 of them.
These axioms fix every distance, so no further BFS is needed: vertices in
one fibre are at distance 3, and cross-fibre pairs at distance 1 or 2
(mu >= 1).  The diameter is 3 and the fibres are the distance-3 classes.
A graph stores one adjacency, the read-only v x v bool matrix A, and every
stage reads it in place.  Its one per-edge form is the (m, 2) int array of
the edges u < w, read off A on first read and kept (16 B per edge); the
edges tuple and the JSON text are built from that array on each call, and
no graph keeps them.  The axioms are read off two BLAS products: neighbour
counts per fibre are entries of A·F (F the fibre indicator), and
common-neighbour counts are entries of A·A, which verify_cover turns in
place, one block at a time, into the residual A^2 - mu J -
(lambda - mu)A with its fibre blocks zeroed, 0 exactly when mu and lambda
are as the axioms say; as A^2 is symmetric, its second block is a
symmetric product.  The one traversal, reachable_count, steps a
boolean frontier over the rows of A.  A passing report is recorded on the
graph, which never changes after construction; cover_report hands it to
later stages so that each graph is verified once.  spectrum_check is one
of them and computes nothing on A: a verified cover's parameters fix its
spectrum, so it compares the report's parameters with the given ones and
their closed-form spectrum with the traces of A^m they fix.
Cover files are JSON.  from_json reads a compact edge list, as writers
emit it, straight into an int array by string operations and numpy, and
any other valid JSON by json.loads; the errors are always those of
json.loads or of the constructor's checks, whichever reader ran.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .exact import QuadExt
from .params import CoverParams, derive_params
from .numtheory import SizeBoundExceeded


class GraphStructureError(ValueError):
    """Malformed input (bad partition, unknown vertex), not an axiom failure."""


# a cover has at most this many vertices: A alone takes v^2 bytes (16 MB at
# the bound), and the constructors refuse larger covers before building.
# Being below 2^24, it keeps verify_cover's float32 products exact
VERTEX_BOUND = 4096


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


# edge rows per %-format call in CoverGraph.to_json_str
_JSON_ROWS = 4096


class CoverGraph:
    """Immutable graph plus fibre partition, vertices 0..v-1.

    Fibres are canonicalised on construction: each fibre sorted ascending,
    fibres ordered by minimum element.  The constructor checks only the
    partition structure and the edge list: vertex labels are ints (numpy
    integers too, never bools, floats or strings), endpoints lie in 0..v-1
    and there are no loops.  These checks run on whole lists and arrays:
    a rectangular fibre partition is checked as one integer array after
    one type sweep over its labels (none for an integer array, see
    _fibre_members), the edges after one sweep over theirs (see
    _edge_array), and fibre_of is one numpy scatter; a label is looked at
    on its own only to name the first bad one.  The cover axioms
    (including fibres being cocliques) are the business of verify_cover,
    so invalid candidates can be built and then diagnosed.  verify_cover
    records a passing report on the graph, and covering_group K with its
    kernel_info.  from_json hands a compact edge list over as one int64
    array, which skips the type sweep.  A partition of more than
    VERTEX_BOUND vertices raises SizeBoundExceeded before the edges are
    read.  The one stored adjacency is A, a read-only v x v bool matrix
    (v^2 bytes: 256 KB on TS(8,1), 16 MB at VERTEX_BOUND) set by one
    scatter of the edges' flat indices, so repeated edges need no sort;
    adjacency_matrix() is a uint8 view of it, and degree, neighbours and
    has_edge read it, raising GraphStructureError for a label outside
    0..v-1.  The one per-edge form kept is _pairs, the
    edges u < w as one (m, 2) intp array in canonical order (16 B per
    edge), read off A's flat nonzero indices on first read; the covering
    group's match table, to_json, to_json_str, toggled, relabelled and
    quotient_cover read it, and the edges tuple is built from it on each
    read and not kept.  Beside the fibre tuples, two read-only intp arrays
    are kept for the stages that index by fibre: _fibre_of, vertex ->
    fibre, and _members, n x r with row i the fibre i.
    """

    __slots__ = ("v", "n", "r", "fibres", "fibre_of", "_fibre_of",
                 "_members", "_a", "_pair_array", "_report", "_kernel",
                 "_params")

    def __init__(self, fibres, edges, vertex_count: int | None = None):
        members, v = _fibre_members(fibres, vertex_count)
        n, r = members.shape
        if r < 2:
            raise GraphStructureError(f"fibre size must be >= 2, got {r}")
        if n < 3:
            raise GraphStructureError(f"need at least 3 fibres, got {n}")

        # A by one scatter of each edge's two flat indices, which is faster
        # than indexing by (row, column) pairs
        u, w = _edge_array(edges, v).T
        a = np.zeros(v * v, dtype=bool)
        a[u * v + w] = a[w * v + u] = True
        a = a.reshape(v, v)
        a.flags.writeable = False

        self.v = v
        self.n = n
        self.r = r
        self.fibres = tuple(map(tuple, members.tolist()))
        self._a = a
        fibre_of = np.empty(v, dtype=np.intp)
        fibre_of[members] = np.arange(n)[:, None]
        members.flags.writeable = fibre_of.flags.writeable = False
        self._members = members
        self._fibre_of = fibre_of
        self.fibre_of = tuple(fibre_of.tolist())
        self._pair_array: np.ndarray | None = None
        self._report: CoverReport | None = None
        self._kernel: tuple | None = None
        self._params: CoverParams | None = None

    # -- edges, read off the matrix -------------------------------------------

    @property
    def _pairs(self) -> np.ndarray:
        """The edges u < w as one (m, 2) array in row-major order: the arcs
        (u, w), read off A's flat nonzero indices, with u < w; built on
        first read and kept, the graph's one per-edge form."""
        if self._pair_array is None:
            x = np.flatnonzero(self._a)
            u = x // self.v
            w = x - u * self.v
            keep = u < w
            self._pair_array = np.column_stack((u[keep], w[keep]))
        return self._pair_array

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, w), u < w, sorted; built from _pairs on each read
        and not kept, with one shared int object per vertex."""
        label = list(range(self.v)).__getitem__
        us, ws = self._pairs.T.tolist()
        return tuple(zip(map(label, us), map(label, ws)))

    # -- basic accessors ---------------------------------------------------

    def _vertex(self, u):
        """u, an index of A, or GraphStructureError unless it is a vertex."""
        if _is_label(u) and 0 <= u < self.v:
            return u
        raise GraphStructureError(f"vertex {u!r} is not in 0..{self.v - 1}")

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self._a[self._vertex(u)]))

    def neighbours(self, u: int) -> list[int]:
        return np.flatnonzero(self._a[self._vertex(u)]).tolist()

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self._a[self._vertex(u), self._vertex(w)])

    def adjacency_matrix(self) -> np.ndarray:
        """The 0/1 adjacency matrix, dtype uint8: a read-only view of the
        stored matrix, not a copy."""
        return self._a.view(np.uint8)

    def toggled(self, u: int, w: int) -> "CoverGraph":
        """Copy with the adjacency of the pair (u, w) flipped: its row
        (min, max) dropped from _pairs when it is an edge, else appended.
        A pair that is no edge of a graph on 0..v-1 raises the
        GraphStructureError the constructor would."""
        if u == w:
            raise GraphStructureError("cannot toggle a loop")
        pair = (u, w) if u < w else (w, u)
        if fault := _edge_fault(pair, self.v):
            raise GraphStructureError(fault)
        u, w = map(int, pair)
        p = self._pairs
        if self._a[u, w]:
            p = np.compress((p[:, 0] != u) | (p[:, 1] != w), p, axis=0)
        else:
            p = np.concatenate((p, [[u, w]]))
        return CoverGraph(self.fibres, p, self.v)

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
        """The text json.dumps(to_json(), sort_keys=True,
        separators=(",", ":")) gives, written from _pairs: the edges are
        %-formatted _JSON_ROWS rows at a time and the blocks joined once,
        so no Python list is built per edge."""
        p = self._pairs
        block = ",".join(["[%d,%d]"] * _JSON_ROWS)
        parts = []
        for start in range(0, len(p), _JSON_ROWS):
            rows = p[start:start + _JSON_ROWS]
            fmt = (block if len(rows) == _JSON_ROWS
                   else ",".join(["[%d,%d]"] * len(rows)))
            parts.append(fmt % tuple(rows.ravel().tolist()))
        fibres = json.dumps(self._members.tolist(), separators=(",", ":"))
        return f'{{"edges":[{",".join(parts)}],"fibres":{fibres},"v":{self.v}}}'

    @staticmethod
    def from_json(obj) -> "CoverGraph":
        """The cover a JSON object states, or a JSON text of one.

        A text whose edge list is compact is decoded by _decode_compact,
        any other by json.loads, which is then the one reporter of
        malformed JSON."""
        if isinstance(obj, str):
            compact = _decode_compact(obj)
            obj = compact if compact is not None else json.loads(obj)
        if not (isinstance(obj, dict) and {"v", "fibres", "edges"} <= obj.keys()):
            raise GraphStructureError(
                "a cover is a JSON object with the keys v, fibres and edges")
        return CoverGraph(obj["fibres"], obj["edges"], obj["v"])


def _fibre_members(fibres, vertex_count) -> tuple[np.ndarray, int]:
    """The fibres as an n x r intp array, each row sorted and the rows
    ordered by their first entries, and v, once they are checked to
    partition 0..v-1 into equal parts, v <= VERTEX_BOUND.

    An integer array, or a list of equal-length lists of integer labels
    (one type sweep, see _all_labels), is checked on the whole: a range
    test, a row sort, one bincount that sees every label once, and the
    rows ordered by their first column through one scatter.  What fails
    that check goes to _scan_fibres, which names the first bad label or
    fibre as the checks run one by one.  Wherever labels are read one by
    one, an array is read as its tolist(), so that a label is named as in
    a list: a non-integer array before the type sweep, an integer one in
    the scan."""
    if isinstance(fibres, np.ndarray) and fibres.dtype.kind in "iu":
        m, rows = fibres, None
    else:
        if isinstance(fibres, np.ndarray):
            fibres = fibres.tolist()
        rows = [_entries(f, "fibre") for f in _entries(fibres, "fibres")]
        m = None
        if _all_labels(chain.from_iterable(rows)):
            try:
                m = np.array(rows, dtype=np.intp)
            except (ValueError, OverflowError):
                pass  # ragged, or a label past intp: scan
    if m is not None and m.ndim == 2 and (vertex_count is None
                                          or _is_label(vertex_count)):
        v = m.size if vertex_count is None else int(vertex_count)
        if (v == m.size and 0 < v <= VERTEX_BOUND and m.min() >= 0
                and m.max() < v):
            m = m.astype(np.intp)
            m.sort(axis=1)
            if (np.bincount(m.ravel(), minlength=v) == 1).all():
                # the first entries are distinct labels below v, so one
                # scatter orders the rows by them (a counting sort)
                row = np.full(v, -1)
                row[m[:, 0]] = np.arange(len(m))
                return m[row[row >= 0]], v
    return _scan_fibres(fibres.tolist() if rows is None else rows,
                        vertex_count)


def _scan_fibres(fibres, vertex_count) -> tuple[np.ndarray, int]:
    """_fibre_members on a partition its array check refused, label by
    label: GraphStructureError names the first label that is not an int,
    then the first label in two fibres, then a partition of other than
    0..v-1; more than VERTEX_BOUND vertices raises SizeBoundExceeded; then
    an empty list and unequal fibres raise."""
    fibres = [_entries(f, "fibre") for f in _entries(fibres, "fibres")]
    labels = list(chain.from_iterable(fibres))
    if not _all_labels(labels):
        for x in labels:  # name the first label that is not an int
            _label(x, "fibre")
    fibres = [sorted(map(int, f)) for f in fibres]
    fibres.sort(key=lambda f: f[0] if f else -1)
    labels = list(chain.from_iterable(fibres))
    seen = set(labels)
    if len(seen) != len(labels):
        seen = set()
        for x in labels:
            if x in seen:
                raise GraphStructureError(f"vertex {x} in two fibres")
            seen.add(x)
    v = (_label(vertex_count, "vertex count") if vertex_count is not None
         else (max(seen) + 1 if seen else 0))
    # v distinct labels partition 0..v-1 exactly when all lie in range
    if v != len(seen) or (seen and (min(seen) < 0 or max(seen) >= v)):
        raise GraphStructureError("fibres do not partition 0..v-1")
    if v > VERTEX_BOUND:
        raise SizeBoundExceeded(f"{v} vertices exceed the bound "
                                f"{VERTEX_BOUND}")
    if not fibres:
        raise GraphStructureError("empty fibre list")
    r = len(fibres[0])
    if any(len(f) != r for f in fibres):
        raise GraphStructureError("fibres have unequal sizes")
    return np.array(fibres, dtype=np.intp).reshape(len(fibres), r), v


def _decode_compact(text: str) -> dict | None:
    """json.loads(text) with the top-level edges as an (m, 2) int64 array,
    or None unless the edge list is written compact.

    Compact is "edges":[[u,w],...,[u,w]] with no whitespace, every label a
    non-negative integer below 10^18 without leading zeros, "edges" written
    once in the text and no backslash in it, so that no escaped key can
    also read "edges".  The array is checked by string operations at C
    speed: with its digits deleted it must read [[,],...,[,]], and the
    labels numpy parses from it must need exactly the digits written,
    which rules out a leading zero and a label numpy could not hold.  The
    rest of the text, with null in place of the array, goes to json.loads,
    and its top-level edges must come back as that null.  Any other text,
    and any failure along the way, gives None, so that the caller's
    json.loads of the whole text reports it.
    """
    start = text.find('"edges":[[') + 8
    if start < 8 or "\\" in text or text.count('"edges"') != 1:
        return None
    end = text.find("]]", start) + 2
    try:
        edges = text[start:end].encode("ascii")
        skeleton = edges.translate(None, b"0123456789")
        m = (len(skeleton) - 1) // 4
        # with every inner ] in a "],[" no label straddles a bracket, so
        # deleting the brackets leaves the labels apart; an empty label
        # raises or ends numpy's parse early
        if (skeleton != b"[" + b"[,]," * (m - 1) + b"[,]]"
                or edges.count(b"],[") != m - 1):
            return None
        e = np.fromstring(edges.translate(None, b"[]"), dtype=np.int64,
                          sep=",")
        if e.size != 2 * m or (top := int(e.max())) >= 10 ** 18:
            return None
        digits, power = e.size, 10
        while power <= top:
            digits += np.count_nonzero(e >= power)
            power *= 10
        if digits != len(edges) - len(skeleton):
            return None
        obj = json.loads(text[:start] + "null" + text[end:])
    except (ValueError, RecursionError):
        return None
    if not (isinstance(obj, dict) and "edges" in obj and obj["edges"] is None):
        return None
    obj["edges"] = e.reshape(m, 2)
    return obj


def _is_label(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _all_labels(xs) -> bool:
    """Whether every x is a label (see _is_label), in one sweep over the
    types present."""
    return all(t is not bool and issubclass(t, (int, np.integer))
               for t in set(map(type, xs)))


def _label(x, what: str) -> int:
    if not _is_label(x):
        raise GraphStructureError(f"{what} label {x!r} is not an integer")
    return int(x)


def _entries(obj, what: str) -> list:
    """obj as a list, or GraphStructureError naming what when it is none."""
    try:
        return list(obj)
    except TypeError:
        raise GraphStructureError(f"{what} {obj!r} is not a list") from None


def _edge_fault(e, v: int) -> str | None:
    """Why e is not an edge of a graph on 0..v-1, or None."""
    try:
        if len(e) != 2:
            raise ValueError
        u, w = pair = tuple(e)
    except (TypeError, ValueError):
        return f"edge {e!r} is not a vertex pair"
    if not (_is_label(u) and _is_label(w)):
        return f"edge {pair!r} has a non-integer label"
    if not (0 <= u < v and 0 <= w < v):
        return f"edge ({u},{w}) out of range"
    if u == w:
        return f"loop at {u}"
    return None


def _edge_array(edges, v: int) -> np.ndarray:
    """The edge list as an (m, 2) integer array, validated on the whole.

    GraphStructureError names the first bad edge in input order: one that
    is not a pair of integer labels (bools are not), an endpoint outside
    0..v-1, or a loop.  A list is flattened once: its edge lengths and
    label types are read in one sweep each, and its labels into an array
    by one np.fromiter; a label too large for the array, such as 2**70,
    counts as out of range.  The whole array is then range-checked by its
    min and max and loop-checked.  Only when one of these checks fails are
    the edges scanned one by one, so that the first bad edge is the one
    named.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        if edges.size == 0:
            return np.zeros((0, 2), dtype=np.intp)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphStructureError("edges must be vertex pairs")
        e = edges
    else:
        edges = _entries(edges, "edges")
        e = None
        try:
            if set(map(len, edges)) <= {2}:
                labels = list(chain.from_iterable(edges))
                if _all_labels(labels):
                    e = np.fromiter(labels, dtype=np.intp,
                                    count=len(labels)).reshape(-1, 2)
        except (TypeError, OverflowError):
            pass  # an edge with no length, or a label past int64: scan
    if e is not None and (e.size == 0 or (
            e.min() >= 0 and e.max() < v and (e[:, 0] != e[:, 1]).all())):
        return e.astype(np.intp, copy=False)
    raise GraphStructureError(next(f for x in edges
                                   if (f := _edge_fault(x, v))))


def is_automorphism(a: np.ndarray, img) -> bool:
    """Whether the vertex map img, a bijection, is an automorphism of the
    graph with 0/1 adjacency matrix a: A permuted by img equals A."""
    img = np.asarray(img)
    return bool((a[img][:, img] == a).all())


def reachable_count(a: np.ndarray) -> int:
    """How many vertices are reachable from vertex 0 in the graph with 0/1
    adjacency matrix a: one boolean frontier step over the rows of a per
    distance layer."""
    seen = np.zeros(len(a), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return int(np.count_nonzero(seen))


def verify_cover(g: CoverGraph, max_violations: int = 10) -> CoverReport:
    """Check the cover axioms, collecting up to max_violations per axiom.

    Always verifies; a passing report is recorded on g for cover_report.
    (a), connectivity, is reported alone when it fails, but (b)-(d) imply
    it (see below), so reachable_count runs only when another axiom fails.
    The other axioms are read off the 0/1 adjacency matrix A through two
    float32 BLAS products: M = A·F, with F the v x n fibre indicator,
    counts each vertex's neighbours per fibre for (b) and (c), and A·A
    counts common neighbours for (d) and (e).
    Their entries are sums of 0/1 terms, so every partial sum is at most
    the largest degree, below v <= VERTEX_BOUND < 2^24, and float32 holds
    every integer up to 2^24: they are exact.
    (d) and (e) are read off one residual R = A^2 - mu J - (lam - mu)A with
    its fibre blocks zeroed, built in A^2's buffer in two blocks: rows
    0..n-1 first, where mu is read at the first non-adjacent cross-fibre
    pair u < w, which (b) and (c) put in row 0, and lam = n - (r-1)mu - 2;
    then, only when the first block holds fewer than max_violations
    witnesses, rows n..v-1 at the columns n..v-1 alone: R is symmetric,
    the first block holds rows 0..n-1 in full, and every witness the
    second can add has w > u >= n.  That block is t t^T, t the rows n..v-1
    of A, which BLAS forms as a symmetric product (ssyrk) at half the
    flops of a general one.  So a failing cover whose first n rows hold
    all its witnesses pays about 1/r of A^2, and a passing one
    n v^2 + (v - n)^2 v / 2 multiply-adds.  The cover passes when mu >= 1
    and R is 0.
    Once (b) and (c) hold, (e) follows from (d): for an edge uw, each
    neighbour of w other than u has one neighbour in u's fibre, so the r
    vertices of that fibre share n - 2 neighbours with w in all, mu with
    each of the r - 1 other than u; R vanishes on the edges when it does
    off them, and every witness is one of (d).  R's entries are integers
    of size below v + 2n, exact in float32 for any v x v matrix that fits
    in memory.
    Witnesses are listed as a scan of the pairs u < w in row-major order
    finds them, and a block is scanned only when it is nonzero; for (c), the
    first vertex of fibre i with a wrong count in fibre j, for each pair
    i < j.
    Once (b)-(e) hold, the distances follow without a BFS:
    same-fibre vertices share no neighbour, since that neighbour would have
    two neighbours in one fibre; cross-fibre non-adjacent pairs are at
    distance 2, since mu >= 1; and u's matched neighbour w in another fibre
    is non-adjacent to u's fibre mates, so each is at distance 2 from w,
    hence at distance 3 from u.  So g is connected, the diameter is 3 and
    the fibres are the distance-3 classes.
    A cap below 1 raises ValueError: it would record no witness, and a
    failing report is one with witnesses.
    """
    if max_violations < 1:
        raise ValueError(f"max_violations must be at least 1, got {max_violations}")
    rep = CoverReport(is_cover=False, n=g.n, r=g.r, mu=None, lam=None)
    a = g._a
    cap = max_violations
    fibre_of = g._fibre_of
    members = g._members  # members[i, k]: k-th vertex of fibre i
    a32 = a.astype(np.float32)
    f = np.eye(g.n, dtype=np.float32)[fibre_of]  # the fibre indicator
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
        return _connected_or(g, rep)
    del f, per_fibre, wrong  # dropped before A^2, to bound peak memory

    # (d) and (e) from one residual R = A^2 - mu J - (lam - mu) A, zero on
    # the fibre blocks, built in A^2's buffer one block at a time: rows
    # 0..n-1, then rows and columns n..v-1 only while fewer than cap
    # witnesses are found.
    # mu is read at the first non-adjacent cross-fibre pair u < w, which
    # (b) and (c) put in row 0
    n = g.n
    mates = members[fibre_of]  # mates[u]: the fibre of u
    w0 = int(((fibre_of != fibre_of[0]) & ~a[0]).argmax())
    head = a32[:n] @ a32
    mu = int(head[0, w0])
    lam = n - (g.r - 1) * mu - 2
    rep.mu = mu
    head -= (lam - mu) * a32[:n]
    nonzero, found = _residual_witnesses(head, 0, a, mates, mu, cap)
    del head
    if len(found) < cap:
        # R is symmetric and the head holds rows 0..n-1 in full, so the
        # tail needs only its columns n..v-1: one symmetric product
        t = a32[n:]
        tail = t @ t.T
        a32 *= lam - mu
        tail -= a32[n:, n:]
        del t, a32
        more, rest = _residual_witnesses(tail, n, a, mates, mu,
                                         cap - len(found))
        nonzero, found = nonzero or more, found + rest
    if mu < 1 or nonzero:
        for u, w, c in found:
            rep.failures.append(Violation(
                "mu-constant", (u, w),
                f"{c} common neighbours, expected {mu} as at {(0, w0)}"))
        if mu < 1:
            rep.failures.append(Violation("mu-positive", (0, w0),
                                          f"mu = {mu} < 1"))
        return _connected_or(g, rep)
    rep.lam = lam

    # (b)-(e) fix every distance (see the docstring): diameter 3, and the
    # fibres are the distance-3 classes
    rep.diameter = 3
    rep.antipodality_confirmed = True
    rep.is_cover = True
    g._report = rep
    return rep


def _residual_witnesses(block: np.ndarray, start: int, a: np.ndarray,
                        mates: np.ndarray, mu: int,
                        cap: int) -> tuple[bool, list]:
    """Turn block, the rows start, start + 1, ... and columns start..v-1
    of A^2 - (lam - mu)A, into that block of R in place: mu subtracted and
    each row zeroed on its vertex's fibre, mates[u], where the fibre falls
    inside the block.  Returns whether the block is nonzero, and its first
    cap witnesses (u, w, common neighbours): the non-adjacent pairs u < w
    where R is nonzero, in row-major order; R vanishes on the edges once
    it does off them (see verify_cover)."""
    block -= mu
    cols = mates[start:start + len(block)] - start
    rows, k = np.nonzero(cols >= 0)
    block[rows, cols[rows, k]] = 0
    if not block.any():
        return False, []
    nz = np.flatnonzero(block != 0)  # far faster than on the floats
    u, w = np.divmod(nz, block.shape[1])
    u += start
    w += start
    keep = np.flatnonzero((u < w) & ~a[u, w])[:cap]
    counts = block.flat[nz[keep]].astype(np.int64) + mu
    return True, list(zip(u[keep].tolist(), w[keep].tolist(),
                          counts.tolist()))


def _connected_or(g: CoverGraph, rep: CoverReport) -> CoverReport:
    """rep, a failing report, or when g is disconnected the report of (a)
    alone, as reachable_count from vertex 0 finds it."""
    reached = reachable_count(g._a)
    if reached == g.v:
        return rep
    return CoverReport(is_cover=False, n=g.n, r=g.r, mu=None, lam=None,
                       failures=[Violation(
                           "connectivity", (0,),
                           f"only {reached} of {g.v} vertices reachable")])


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


@dataclass(frozen=True)
class SpectrumReport:
    ok: bool
    failed: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def spectrum_check(g: CoverGraph, p: CoverParams) -> SpectrumReport:
    """Check that g is an (n, r, mu)-cover with p's parameters and that p's
    closed-form spectrum has the traces such a cover's A^m has.

    Nothing is computed on A.  A verified cover is distance regular with
    intersection array {n-1, (r-1)mu, 1; 1, mu, n-1}, which fixes its
    spectrum k = n-1, theta, -1, tau with their multiplicities (Brouwer,
    Cohen and Neumaier, Distance-Regular Graphs, 4.1), so the check reads
    cover_report(g), which verifies g at most once: it fails "cover" when
    g is not a cover, and "parameters" when the report's (n, r, mu,
    lambda) differ from p's.  Then tr(A^m) for m <= 3, which the axioms
    make v, 0, vk and vk lambda, is compared with the model spectrum
    k^m + m_theta theta^m + (n-1)(-1)^m + m_tau tau^m, evaluated exactly
    in the surd field; each mismatch fails "model-trace-A^m".
    """
    rep = cover_report(g)
    failed = []
    if not rep.is_cover:
        failed.append("cover")
    elif (rep.n, rep.r, rep.mu, rep.lam) != (p.n, p.r, p.mu, p.lam):
        failed.append("parameters")
    k = p.n - 1
    traces = [p.v, 0, p.v * k, p.v * k * p.lam]
    for m, trace in enumerate(traces):
        model = (QuadExt(k ** m) + p.m_theta * p.theta ** m
                 + QuadExt((p.n - 1) * (-1) ** m) + p.m_tau * p.tau ** m)
        if model != trace:
            failed.append(f"model-trace-A^{m}")
    return SpectrumReport(ok=not failed, failed=tuple(failed))


def params_of(g: CoverGraph) -> CoverParams:
    """require_cover + derive_params in one step; raises if g is not a cover.

    Derived once per graph: the result is recorded on g."""
    if g._params is None:
        rep = require_cover(g)
        g._params = derive_params(rep.n, rep.r, rep.mu)
    return g._params
