"""Group actions on covers: covering group, fibre action, quotients, audits.

The covering group K of a cover is found without a search.  A fibre-fixing
automorphism of a connected cover is determined by the image of one vertex,
because each neighbour's image is the unique neighbour of the image in that
neighbour's fibre (Godsil-Hensel 1992).  covering_group tries the r images
of vertex 0 in its fibre and propagates each along the perfect matchings
between fibres, read off the arcs.  So K is semiregular, and its element
list gives its chain, on the base (0,), by PermGroup.from_elements with no
Schreier-Sims; a group's kernel on the fibres, the elements of K in the
group's chain, gets its chain the same way.  Quotients by subgroups U of
the covering group inherit the cover structure with fibre size divided and
mu multiplied by |U|; quotient_cover checks U <= K against K's recorded
elements, maps the edges to the orbits and records the report that
theorem fixes, with no second verification.  fibre_action alone checks a
group G, on one matrix A, and takes its kernel, and it rebases G's
chain once, with a = 0 and F its fibre.  That one chain acts on the
vertices and on a point F* per fibre, with base (F*, a, F - {a}), so its
tails are M = G_{F} (the fibre group's point stabilizer), G_a and the
pointwise stabilizer C of F.  Its report, FibreActionReport, names them,
holds the chain's level-0 transversal and M's, and forms from the two the
element sending a to any b in a^G.  Every later stage reads the groups it
needs off that report: the transitivity (|G : M| = n, |G : G_a| = v),
the fibre rank and subdegrees (M's orbits on the fibre points), the arc
orbits (G's orbits on arcs from a are G_a's orbits on N(a)), the rank-3
subdegree identities and structure_audit, which builds no chain and sifts
nothing: a tail is the pointwise stabilizer of a base prefix (Seress
2003, 4.1), so an element of G lies in it iff it fixes those points.
Its item C = C_G(K) meet G_a checks C <= C_G(K) by products of C's
generators with K's elements, so a wrong C fails it; the other inclusion
is a lemma (see structure_audit).  Every orbit of a group given by
generators comes from PermGroup.orbits; those of K and of the subgroups U
of K a quotient is taken by are read off the element array of the small
group, one column per vertex.  The audit functions turn the assertable
group-theoretic identities (arc orbits vs rank, the involution lemma's
case bounds, rank-3 subdegree relations, M = K : G_a) into pass/fail
reports on concrete instances, and check nothing a verified cover and an
automorphism of it satisfy anyway.  They read the cover's one adjacency,
the matrix A, in place: a count over vertices is a numpy reduction over
rows of A.  involution_types finds every displacement type of involution
exactly, with no draw: each is the type of an involution in a vertex
stabilizer G_c, one per vertex orbit, or in one of the cosets of G_a
sending a to a G_a-orbit representative, and it scans those as image
arrays, one gather per chain level, under one size bound,
STABILIZER_SCAN_MAX; each array keeps only its involutions, and their
concatenation is classified once, by one int64 key per type.  A verified
cover's report (cover_report), its K with K's info and, once read, an
abelian cover's voltage matrix (kernel_voltages) are recorded on the graph,
so each is found once however many stages read it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import is_integral
from .graphcore import (CoverGraph, CoverReport, SizeBoundExceeded,
                        cover_report, is_automorphism, params_of,
                        require_cover)
from .perms import PermGroup, Permutation


# -- basic actions -----------------------------------------------------------

def is_cover_automorphism(g: CoverGraph, perm) -> bool:
    """Whether perm is a permutation of g's vertices that is a graph
    automorphism; any other image list, of any length, gives False."""
    p = perm if isinstance(perm, Permutation) else Permutation(perm)
    return (_permutes_vertices(g, p.img)
            and is_automorphism(g.adjacency_matrix(), p.img))


def _permutes_vertices(g: CoverGraph, img) -> bool:
    """Whether img lists each of the vertices 0..v-1 once."""
    return sorted(img) == list(range(g.v))


def covering_group(g: CoverGraph, group: PermGroup | None = None):
    """Kernel of the action on fibres, with regularity/abelianity report.

    g must be a cover: the report verify_cover recorded on g is used, g is
    verified only when none is recorded, and GraphStructureError names the
    failed axioms otherwise.  K is every fibre-fixing automorphism, found by
    matching propagation (see _fibre_fixing_automorphisms) once per graph
    and recorded on g with its kernel_info; every call returns that record.
    No search is made, and K.generators lists every non-identity element of
    K, whose (|K| x v) image array is recorded with it (see kernel_images).
    Given a group, it must act on g's vertices by automorphisms
    (ValueError otherwise), and the kernel of its action on the fibres is
    group ∩ K, the record itself when group contains K.  Returns (kernel, info).
    """
    require_cover(g)
    if g._kernel is None:
        images = _fibre_fixing_automorphisms(g)
        found = [Permutation(img) for img in images.tolist()]
        kernel = PermGroup.from_elements(found, found, g.v)
        g._kernel = kernel, kernel_info(g, kernel), images, None
    if group is None:
        return g._kernel[:2]
    require_automorphisms(g, group)
    full = g._kernel[0].generators
    inside = [k for k in full if k in group]
    kernel = PermGroup.from_elements(inside, inside, g.v)
    if kernel.generators == full:
        return g._kernel[:2]
    return kernel, kernel_info(g, kernel)


def kernel_images(g: CoverGraph) -> np.ndarray:
    """The elements of K = covering_group(g)[0] as one read-only
    (|K| x v) image array, identity first, recorded with K on g."""
    covering_group(g)
    return g._kernel[2]


def kernel_voltages(g: CoverGraph) -> np.ndarray:
    """An abelian cover's voltage matrix W, read-only n x n over the rows of
    kernel_images(g): W[i, j] is the k with k(b_j) ~ b_i, b_i fibre i's least
    label, so (i, a) -> a(b_i) maps (i, a) ~ (j, a + W_ij) onto g.  Built on
    first read, kept with K; ValueError unless K is abelian and regular."""
    if not covering_group(g)[1]["abelian_cover"]:
        raise ValueError("cover is not abelian (kernel not abelian-regular)")
    if g._kernel[3] is None:
        g._kernel = *g._kernel[:3], _voltages(g, g._kernel[2])
    return g._kernel[3]


def _voltages(g: CoverGraph, images: np.ndarray) -> np.ndarray:
    """W off the arcs (b_i, x), x in fibre j: W[i, j] = where[x], the k with
    k(b) = x for b x's base, a bijection as K is regular on every fibre."""
    bases = g._members[:, 0]
    where = np.empty(g.v, dtype=np.intp)
    where[images[:, bases]] = np.arange(len(images))[:, None]
    i, x = np.nonzero(g._a[bases])
    w = np.zeros((g.n, g.n), dtype=np.intp)
    w[i, g._fibre_of[x]] = where[x]
    w.flags.writeable = False
    return w


def kernel_info(g: CoverGraph, kernel: PermGroup) -> dict:
    """Order, abelianity and regularity on fibres of a fibre-fixing group.

    kernel must be a group of automorphisms of the connected cover g that
    fixes every fibre, as K and group ∩ K are.  Such a group is
    semiregular (see the module docstring), so ab and ba, which agree at
    vertex 0 iff ab(ba)^-1 fixes it, are equal iff they agree there: two
    generators commute iff b[a[0]] == a[b[0]].  Each of its orbits has
    |kernel| points inside one fibre of r, so it is regular on the fibres
    iff its order is r: no element is listed.
    """
    order = kernel.order()
    gens = [p.img for p in kernel.generators]
    abelian = all(b[a[0]] == a[b[0]]
                  for i, a in enumerate(gens) for b in gens[i + 1:])
    regular = order == g.r
    return {"order": order, "is_abelian": abelian,
            "regular_on_fibres": regular,
            "abelian_cover": abelian and regular}


def _fibre_fixing_automorphisms(g: CoverGraph) -> np.ndarray:
    """Every fibre-fixing automorphism of a verified cover, identity first,
    as the rows of one read-only image array.

    match[x, j] is the neighbour of x in fibre j (x itself for its own fibre),
    filled by one scatter over the 2m arcs of g._pairs: g is verified, so each
    vertex has one neighbour in every other fibre and every entry is written
    once.  Each image c of vertex 0 in its fibre, fibre 0 (fibres are ordered
    by least element), determines img[y] = match[img[x], fibre_of[y]] for every
    edge xy, and the propagation tree is read off the table: the neighbours
    match[0, j] of 0, j != 0; every other vertex outside fibre 0 from a
    neighbour of 0 it is matched to, by one scatter over match[N(0)] (mu >= 1,
    so each has one); and each fibre-mate z of 0 from its neighbour match[z,
    1], which lies outside N(0).  The candidate is kept when img[match[x, j]]
    = match[img[x], j] for every x and j, i.e. every edge goes to an edge, so
    the tree chosen does not change K.  Such an img maps V onto a set closed
    under adjacency, all of V as the verified cover is connected, so it is a
    bijection with no further test.  The cost is O(m) for the matching and
    O(r v n) for the r candidates.
    """
    v = g.v
    fibre = g._fibre_of
    u, w = g._pairs.T
    match = np.empty((v, g.n), dtype=np.intp)
    match[u, fibre[w]] = w
    match[w, fibre[u]] = u
    match[np.arange(v), fibre] = np.arange(v)

    nbrs = match[0, 1:]
    parent = np.zeros(v, dtype=np.intp)
    parent[match[nbrs]] = nbrs[:, None]
    mates = g._members[0, 1:]
    outside = np.ones(v, dtype=bool)  # outside fibre 0 and N(0)
    outside[0] = outside[mates] = outside[nbrs] = False
    far = np.flatnonzero(outside)
    via = match[mates, 1]

    found = []
    for c in g.fibres[0]:
        img = np.empty(v, dtype=np.intp)
        img[0] = c
        img[nbrs] = match[c, 1:]
        img[far] = match[img[parent[far]], fibre[far]]
        img[mates] = match[img[via], 0]
        if np.array_equal(img[match], match[img]):
            found.append(img)
    found = np.array(found)
    found.flags.writeable = False
    return found


@dataclass
class FibreActionReport:
    """fibre_action's findings on G = vertex_group, with a = 0 and F its
    fibre; the one place that knows its chain's layout.  kernel is G ∩ K.
    chain is G's one chain: G on the vertices and on the point v + i of
    each fibre i, v + n points, with base (F*, a, F - {a}),
    F* = v + fibre_of[a].  Its tails after 1, 2 and 1 + |F| points are m,
    M = G_{F}; g_a, G_a; and c, the pointwise stabilizer C of F.  C lies in
    C_G(K), so C meet C_G(K) needs no tail of its own: for p in C and k in
    the normal, semiregular G ∩ K, p^-1 k p sends a to p[k[a]] = k[a], so
    it is k.  to_fibre, the chain's level-0 transversal, sends each fibre
    point of F*^G to an element mapping F to that fibre, and in_fibre, M's,
    each b in a^M to an element mapping a to b; each is built once, from
    the group it belongs to.  fibre_of is the cover's.  Every later stage
    reads its groups off this report."""
    transitive: bool
    rank: int | None
    subdegrees: tuple[int, ...] | None
    vertex_group: PermGroup
    kernel: PermGroup
    kernel_info: dict
    vertex_transitive: bool
    chain: PermGroup
    m: PermGroup
    g_a: PermGroup
    c: PermGroup
    fibre_of: tuple[int, ...]

    @cached_property
    def to_fibre(self) -> dict[int, Permutation]:
        return self.chain.transversal()

    @cached_property
    def in_fibre(self) -> dict[int, Permutation]:
        return self.m.transversal()

    def sending(self, b: int) -> Permutation | None:
        """An element of G, on the chain's points, sending a to b: s u, u
        the level-0 element from F to b's fibre and s M's element from a
        to the b' in F that u sends to b.  None when b is not in a^G, that
        is, when b's fibre is not in F*^G or b' is not in a^M."""
        u = self.to_fibre.get(self.vertex_group.degree + self.fibre_of[b])
        s = None if u is None else self.in_fibre.get(u.img.index(b))
        return None if s is None else s * u


def require_automorphisms(g: CoverGraph, group: PermGroup) -> None:
    """ValueError unless group acts on g's vertices by automorphisms."""
    if group.degree != g.v:
        raise ValueError(f"group acts on {group.degree} points, "
                         f"not on the {g.v} vertices")
    if not all(_permutes_vertices(g, p.img) for p in group.generators):
        raise ValueError(f"group generator is not a permutation of the "
                         f"{g.v} vertices")
    a = g.adjacency_matrix()
    if not all(is_automorphism(a, p.img) for p in group.generators):
        raise ValueError("group generator is not a graph automorphism")


def fibre_action(g: CoverGraph, group: PermGroup) -> FibreActionReport:
    """Transitivity, rank and subdegrees of group's action on the fibres,
    group ∩ K with its info, and group's one chain (see
    FibreActionReport), a = 0.  covering_group checks that g is a verified
    cover and group acts by automorphisms.  The chain is G's own, rebased
    through extend, which keeps the action on the vertices and so is
    injective, and adds the fibre points.
    G is transitive on the fibres iff F*^G, of |G : M| points, has n,
    and the subdegrees are then the orbits of M on the fibre points, so no
    group on the fibres gets a chain of its own.  G is vertex-transitive
    iff |a^G| = |G : G_a| is v."""
    kernel, kinfo = covering_group(g, group)
    a, v, n = 0, g.v, g.n
    fibre = g.fibres[g.fibre_of[a]]
    fibre_of, firsts = g.fibre_of, [f[0] for f in g.fibres]

    def extend(p: Permutation) -> Permutation:
        """p on the vertices and on the point v + i of each fibre i."""
        img = p.img
        return Permutation(img + tuple(v + fibre_of[img[x]] for x in firsts))

    chain = group.rebased((v + fibre_of[a], a, *(x for x in fibre if x != a)),
                          extend)
    m_group, g_a = chain.stabilizer(1), chain.stabilizer(2)
    order = chain.order()
    rank = sizes = None
    if order == n * m_group.order():
        orbs = [o for o in m_group.orbits() if v <= o[0] < v + n]
        rank, sizes = len(orbs), tuple(sorted(len(o) for o in orbs))
    return FibreActionReport(rank is not None, rank, sizes, group, kernel,
                             kinfo, order == v * g_a.order(), chain, m_group,
                             g_a, chain.stabilizer(1 + len(fibre)), fibre_of)


def arc_orbit_count(g: CoverGraph, fa: FibreActionReport) -> dict:
    """Number of orbits on ordered adjacent pairs, plus hypothesis checks.

    fa is fibre_action's report on the group G counted.  The G-orbits on
    the arcs (a, w) with a fixed correspond to the G_a-orbits on N(a), so
    the count sums those over G's vertex orbits, each with its least point
    a.  The orbit of a = 0 reads G_a = fa.g_a, of which only the orbits
    on the vertices count; any further orbit, which only a group that is
    not vertex-transitive has, takes point_stabilizer.
    The rank identity (arc orbits = rank on fibres minus one) needs G to be
    vertex-transitive and to contain the covering group with order exactly
    r; both are read off fa and reported, and the count is returned anyway.
    """
    group = fa.vertex_group
    count = 0
    for orbit in group.orbits():
        a = orbit[0]
        g_a = fa.g_a if a == 0 else group.point_stabilizer(a)
        reps = [o[0] for o in g_a.orbits() if o[0] < g.v]
        count += int(np.count_nonzero(g._a[a, reps]))

    vt, order = fa.vertex_transitive, fa.kernel_info["order"]
    return {"arc_orbits": count, "vertex_transitive": vt,
            "covering_group_order": order,
            "rank_identity_applicable": vt and order == g.r}


# -- quotient covers -----------------------------------------------------------

class QuotientError(ValueError):
    pass


def quotient_cover(g: CoverGraph, sub: PermGroup) -> CoverGraph:
    """Quotient by a subgroup U of the covering group K, with its cover
    report derived, not re-verified.

    g must be a cover (GraphStructureError otherwise, from covering_group),
    and U <= K is checked by finding each generator of U among the rows of
    kernel_images(g): K is semiregular, so the row is the one whose image
    of vertex 0 agrees.  Then 1 <= |U| < r is checked.  Membership gives
    the rest: U fixes every fibre, acts semiregularly, and |U| divides
    |K|, which divides r, as K's orbits split each fibre into orbits of
    |K| points.  The U-orbits, numbered by least element, are the
    quotient's vertices: a vertex's orbit number is the rank of its
    column's minimum in U's (|U| x v) image array, the least element of
    its orbit, among all those minima.  The quotient's edges are the images
    of g's edges, duplicates collapsed by CoverGraph; none lies within an
    orbit, as an orbit lies in one fibre, a coclique.  A fibre of g is a
    union of r/|U| orbits of |U| vertices each, so its sorted orbit numbers
    repeat each orbit |U| times in a row, and every |U|-th one is the
    quotient fibre.  The quotient is an (n, r/|U|, mu |U|)-cover (Godsil and Hensel, JCTB
    56, 1992), and its report is recorded on it with no verify_cover.  Let
    T(x, j) be the neighbour of x in fibre j.  Each u in U is a
    fibre-fixing automorphism, so u T(x, j) = T(ux, j): the neighbours of
    Ux in fibre j form the one orbit U T(x, j), and the fibres of the
    quotient are cocliques joined pairwise by perfect matchings.  No two
    vertices uy != u'y of Uy share a neighbour of x in one fibre, since
    the matching between two fibres of g is a bijection, so Ux and Uy have
    sum_u c(x, uy) common neighbour orbits, c counting common neighbours
    in g.  For Ux, Uy in two fibres that is |U| mu, or lam + (|U| - 1) mu
    when they are adjacent, as x is then adjacent to one vertex of Uy:
    mu' = |U| mu >= 1 and lam' = n - (r/|U| - 1) mu' - 2, as verify_cover
    would find, and the diameter is 3 as for every cover (see verify_cover).
    """
    if sub.degree != g.v:
        raise QuotientError(f"subgroup acts on {sub.degree} points, "
                            f"not on the {g.v} vertices")
    kernel = kernel_images(g)
    for p in sub.generators:
        row = kernel[kernel[:, 0] == p.img[0]]
        if not (len(row) and np.array_equal(row[0], p.img)):
            raise QuotientError("subgroup is not contained in the covering "
                                "group")
    u_order = sub.order()
    if u_order >= g.r:
        raise QuotientError(f"|U| = {u_order} must be smaller than r = {g.r}")

    images = np.array([p.img for p in sub.elements()])
    _, orbit_of = np.unique(images.min(axis=0), return_inverse=True)
    fibres = np.sort(orbit_of[g._members], axis=1)[:, ::u_order]
    quot = CoverGraph(fibres, orbit_of[g._pairs])
    base = cover_report(g)
    quot._report = CoverReport(
        is_cover=True, n=g.n, r=g.r // u_order, mu=base.mu * u_order,
        lam=base.lam + (u_order - 1) * base.mu,
        antipodality_confirmed=True, diameter=3)
    return quot


# -- displacement and involution audits ---------------------------------------

def displacement_profile(g: CoverGraph, x) -> tuple[int, int, int, int]:
    """Counts of vertices moved to distance 0, 1, 2, 3 by an automorphism.

    Distances use the cover metric: same fibre means 0 or 3, other fibres 1
    when adjacent, else 2.  g must be a verified cover for this to be valid.
    """
    p = x if isinstance(x, Permutation) else Permutation(x)
    if not is_cover_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the cover")
    return _displacement_counts(g, np.array(p.img))


def _displacement_counts(g: CoverGraph, img) -> tuple[int, int, int, int]:
    """displacement_profile of an automorphism already checked, from its
    image array."""
    return tuple(_displacement_rows(g, img[None])[0].tolist())


def _displacement_rows(g: CoverGraph, x: np.ndarray) -> np.ndarray:
    """The displacement counts of automorphisms already checked, one row
    of x's images each: each vertex u against its image x[u], same fibre
    or adjacent read off fibre_of and A (whose diagonal is 0)."""
    fixed = np.count_nonzero(x == np.arange(g.v), axis=1)
    same = np.count_nonzero(g._fibre_of[x] == g._fibre_of, axis=1) - fixed
    near = np.count_nonzero(g._a[np.arange(g.v), x], axis=1)
    return np.stack([fixed, near, g.v - fixed - same - near, same], axis=1)


@dataclass
class AuditItem:
    lemma: str
    item: str
    status: str  # 'pass' | 'fail' | 'inapplicable'
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"lemma": self.lemma, "item": self.item,
                "status": self.status, "witness": self.witness}


def involution_audit(g: CoverGraph, x) -> list[AuditItem]:
    """The involution lemma's case bounds, for an involution x with Fix !=
    empty.

    l is the number of fibres holding a fixed point and f = |Fix| / l.
    When l = 1, Fix is one whole fibre, f = r (case-l=1), and t = -tau is
    even (case-l=1-t-even).  When f = 1 < l, l <= r mu / (t - 1) for t >= 2
    (case-f=1-hoffman).  When l > 1 and lambda >= mu, f <= |X| / (n - l)
    <= |Fix| <= (lambda - mu) alpha_1 / (n - l) + r mu <= r lambda, X the
    vertices outside Fix with a fixed neighbour and alpha_1 the number x
    moves to a neighbour (case-l>1-chain; inapplicable when lambda < mu).
    The identities every automorphism of a cover satisfies, as its fibres
    are joined by perfect matchings (Godsil and Hensel, JCTB 56, 1992),
    are not checked; each has a one-line proof:
    - every fibre x fixes setwise holds f fixed points, |Fix| = lf: x
      preserves the matching between two setwise-fixed fibres, so that
      matching pairs their fixed points;
    - Fix is regular of degree l - 1, a clique when f = 1: a fixed
      vertex's neighbour is fixed exactly in the fixed fibres;
    - alpha_3 = (r - f) l and alpha_1 + alpha_2 = (n - l) r: a vertex
      moved within its own fibre lies in a fixed fibre;
    - a vertex outside Fix sees at most l fixed vertices: a vertex has one
      neighbour per fibre.
    """
    p = x if isinstance(x, Permutation) else Permutation(x)
    lemma = "involution-fixed-subgraph"
    out: list[AuditItem] = []
    if not is_cover_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the cover")
    if p.order() != 2:
        raise ValueError("permutation is not an involution")

    img = np.array(p.img)
    is_fixed = img == np.arange(g.v)
    fixed = np.flatnonzero(is_fixed)
    if not len(fixed):
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "fixed-point-free involution"})]
    rep = require_cover(g)
    n, r, mu, lam = rep.n, rep.r, rep.mu, rep.lam
    l = len(set(g._fibre_of[fixed].tolist()))
    f = len(fixed) // l

    pp = params_of(g)
    t_int = -int(pp.tau) if is_integral(pp.tau) else None

    if l == 1:
        out.append(AuditItem(lemma, "case-l=1", "pass" if f == r else "fail",
                             {"f": f, "r": r}))
        if t_int is not None:
            out.append(AuditItem(lemma, "case-l=1-t-even",
                                 "pass" if t_int % 2 == 0 else "fail",
                                 {"t": t_int}))
        else:
            out.append(AuditItem(lemma, "case-l=1-t-even", "inapplicable",
                                 {"reason": "tau is not an integer"}))
    if f == 1 and l > 1 and t_int is not None and t_int >= 2:
        bound = Fraction(r * mu, t_int - 1)
        out.append(AuditItem(lemma, "case-f=1-hoffman",
                             "pass" if l <= bound else "fail",
                             {"l": l, "r*mu/(t-1)": str(bound)}))
    if l > 1:
        if lam >= mu:
            near = np.count_nonzero(g._a[:, fixed].any(axis=1) & ~is_fixed)
            lhs = Fraction(int(near), n - l)
            middle = len(fixed)
            alpha1 = _displacement_counts(g, img)[1]
            rhs = Fraction((lam - mu) * alpha1, n - l) + r * mu
            chain_ok = (f <= lhs <= middle <= rhs <= r * lam)
            out.append(AuditItem(lemma, "case-l>1-chain",
                                 "pass" if chain_ok else "fail",
                                 {"f": f, "|X|/(n-l)": str(lhs),
                                  "|Omega|": middle, "bound": str(rhs),
                                  "r*lambda": r * lam}))
        else:
            out.append(AuditItem(lemma, "case-l>1-chain", "inapplicable",
                                 {"reason": "needs lambda >= mu"}))
    return out


# involution_types lists each stabilizer G_c it scans as one array of
# |G_c| v vertex images; TS(3,2)'s G_a, 103 680 x 243, fits
STABILIZER_SCAN_MAX = 1 << 25


def involution_types(g: CoverGraph, fa: FibreActionReport):
    """One involution of each type in G = fa.vertex_group, found exactly,
    and the number of elements scanned.

    The type of an involution is its displacement profile, whose first
    entry counts its fixed vertices.  It is invariant under conjugation by
    automorphisms, so the set of types does not depend on the labelling.  fa
    is fibre_action's report on G, which has checked that G acts by
    automorphisms of the verified cover g.  With a = 0, the scan meets a
    conjugate of every involution x of G:
    - if x fixes a point of the G-orbit whose least point is c, x is
      conjugate into G_c;
    - if x fixes no point, it sends a to some b, and conjugating it by an
      h in G_a sending b to the least point b0 of its G_a-orbit gives an
      involution sending a to b0, an element of the coset G_a t of those
      sending a to b0, for any such t; it sends b0 back to a.
    So the G_c, one per vertex orbit, and the cosets G_a t_b, one per
    G_a-orbit in a^G other than {a}, hold every type.  G_a is fa.g_a,
    each other G_c is G's point_stabilizer, and t_b is fa.sending(b).
    Each G_c's elements are one image array (_element_array); a coset's
    rows h t_b gather t_b's images at h's, and are formed only for the h
    whose row sends b to a and moves every point of F.  Each piece (G_a,
    each coset, each other G_c) keeps only its rows that pass x(x(p)) = p
    at the chain's base points, one column each, then at every point
    (_involution_rows).  The survivors alone are concatenated, in scan
    order, and classified once: their types are counted by numpy
    reductions (_displacement_rows) and each type is one int64 key,
    ((f (v + 1) + near) (v + 1) + far) (v + 1) + same, which orders as the
    rows do because every entry is at most v <= VERTEX_BOUND = 4 096, so
    the key stays below 4 097^4 < 2^63.  np.unique(key, return_index=True)
    sorts stably, so each type's representative is the first of its type
    scanned, and the identity, f = v, has the largest key.
    SizeBoundExceeded when some |G_c| v passes STABILIZER_SCAN_MAX, before
    any array is made.  Returns ([(type, x)] sorted by type, each x the
    first of its type scanned, the elements scanned): the sum of the |G_c|
    and |G_a| per coset, which does not depend on the labelling either.
    """
    group, v, a = fa.vertex_group, g.v, 0
    orbits = group.orbits()  # a's orbit first, by its least point
    stabs = [fa.g_a]
    stabs += [group.point_stabilizer(o[0]) for o in orbits[1:]]
    for sub in stabs:
        if sub.order() * v > STABILIZER_SCAN_MAX:
            raise SizeBoundExceeded(
                f"a vertex stabilizer of order {sub.order()} on {v} vertices "
                f"passes STABILIZER_SCAN_MAX = {STABILIZER_SCAN_MAX} images")
    dtype = np.min_scalar_type(v - 1)
    cosets = [(b, np.array(fa.sending(b).img[:v], dtype=dtype))
              for b in (o[0] for o in stabs[0].orbits())
              if b != a and b in orbits[0]]

    fibre = g.fibres[g.fibre_of[a]]
    points = [p for p in fa.chain.base if p < v]
    e = _element_array(stabs[0], v, dtype)
    pieces = [_involution_rows(e, points)]
    for b, t in cosets:
        keep = t[e[:, b]] == a
        for f in fibre:
            keep &= t[e[:, f]] != f
        pieces.append(_involution_rows(t[e[keep]], points))
    del e
    for sub in stabs[1:]:
        pieces.append(_involution_rows(_element_array(sub, v, dtype), points))
    x = np.concatenate(pieces)
    kinds = _displacement_rows(g, x).astype(np.int64, copy=False)
    key = kinds[:, 0]
    for column in kinds.T[1:]:
        key = key * (v + 1) + column
    _, first = np.unique(key, return_index=True)
    found = [(tuple(kinds[i].tolist()), Permutation(x[i].tolist()))
             for i in first.tolist() if kinds[i, 0] < v]  # not the identity
    scanned = (sum(sub.order() for sub in stabs)
               + len(cosets) * stabs[0].order())
    return found, scanned


def _element_array(sub: PermGroup, v: int, dtype) -> np.ndarray:
    """Every element of sub as the rows of one (|sub| x v) array of its
    images on the vertices 0..v-1, built from the identity row by one
    gather per level: the row of t e, for t in the level's transversal and
    e a row so far, holds e's images at t's, (t e)[x] = e[t[x]]."""
    x = np.arange(v, dtype=dtype)[None]
    for level in sub.transversals():
        ts = np.array([t.img[:v] for t in level.values()])
        x = np.take(x, ts, axis=1).reshape(-1, v)
    return x


def _involution_rows(x: np.ndarray, points) -> np.ndarray:
    """The rows of the image array x that square to the identity:
    x(x(p)) = p is tested at points first, one column each, then at every
    point."""
    rows = np.arange(len(x))
    for p in points:
        rows = rows[x[rows, x[rows, p]] == p]
    x = x[rows]
    return x[(np.take_along_axis(x, x, axis=1) == np.arange(x.shape[1]))
             .all(axis=1)]


# -- rank-3 subdegree identities ----------------------------------------------

def subdegree_identity_check(g: CoverGraph, fa: FibreActionReport) -> dict:
    """Check the rank-3 relations k1(lam-lam1) = k2(lam-lam2) and the
    mu-companion k1(mu-mu1) = k2(mu-mu2) for every fixed companion vertex.

    fa is fibre_action's report on the group checked, fa.vertex_group,
    and the vertex stabilizer G_a (a = 0) is fa.g_a, with its orbits on
    the vertices.  Needs the induced fibre group to have rank 3 and G_a to
    have exactly two orbits on the neighbourhood; otherwise inapplicable.
    For a* in F fixed by G_a, u -> fibre(u) is a G_a-equivariant bijection
    from N(a), and from N(a*), onto the other fibres, so G_a's orbits on
    N(a*) have the sizes (k1, k2) too.
    """
    if not fa.transitive or fa.rank != 3:
        return {"applicable": False,
                "reason": f"fibre action rank is {fa.rank}, need 3"}
    rep = require_cover(g)
    lam, mu = rep.lam, rep.mu

    a = 0
    stab = fa.g_a
    orbits = [o for o in stab.orbits() if o[0] < g.v]

    def meeting(u: int) -> list[list[int]]:
        """The stabilizer orbits that meet N(u), for u fixed by G_a: they
        partition N(u), which G_a preserves."""
        return [o for o in orbits if g._a[u, o[0]]]

    orbit_sets = meeting(a)
    if len(orbit_sets) != 2:
        return {"applicable": False,
                "reason": f"{len(orbit_sets)} stabilizer orbits on the "
                          "neighbourhood, need 2"}
    orbit_sets.sort(key=len)
    (x1, x2) = orbit_sets
    k1, k2 = len(x1), len(x2)

    # neighbours inside a G_a-orbit, the same at each of its points
    lam1 = int(np.count_nonzero(g._a[x1[0], x1]))
    lam2 = int(np.count_nonzero(g._a[x2[0], x2]))
    eq_lambda = k1 * (lam - lam1) == k2 * (lam - lam2)
    result = {"applicable": True, "k1": k1, "k2": k2,
              "lambda1": lam1, "lambda2": lam2,
              "eq_lambda_holds": eq_lambda, "mu_checks": []}

    # companion identity for each a* fixed by the stabilizer in F(a) - {a}
    home = [x for x in g.fibres[g.fibre_of[a]] if x != a]
    fixed_companions = [x for x in home
                        if all(s[x] == x for s in stab.generators)]
    for astar in fixed_companions:
        # G_a's two orbits on N(a*), of k1 and k2 points; either way round
        # when k1 == k2
        o1, o2 = sorted(meeting(astar), key=len)
        for x1s, x2s in ([(o1, o2), (o2, o1)] if k1 == k2 else [(o1, o2)]):
            mu1 = int(np.count_nonzero(g._a[x1s[0], x1]))
            mu2 = int(np.count_nonzero(g._a[x2[0], x2s]))
            holds = k1 * (mu - mu1) == k2 * (mu - mu2)
            result["mu_checks"].append(
                {"a_star": astar, "mu1": mu1, "mu2": mu2,
                 "status": "pass" if holds else "fail"})
    return result


# -- structural audit (stabilizers, normalizers, fixed points) -----------------

def structure_audit(g: CoverGraph, fa: FibreActionReport) -> list[AuditItem]:
    """Assertable identities tying M = G_{F}, C = G_F, K and G_a together.

    Checks, on G = fa.vertex_group: C = C_G(K) meet G_a and M = K : G_a
    (semidirect with trivial intersection); the index |G : M| equals the
    fibre count; |Fix(G_a)| = |N_G(G_a) : G_a| divides nr; and
    |Fix_Sigma(M)| = |N_G(M) : M| divides n.  M, G_a and C are fa.m,
    fa.g_a and fa.c, tails of fa.chain.  No chain is built and nothing
    scans elements.  K is regular on the fibres when the items run, so an
    element of G_a commuting with K fixes every a^k, all of F: C_G(K) meet
    G_a <= C is that lemma.  The item checks C <= C_G(K), C's generators
    on the vertices against K's elements by full image products, so a
    wrong C fails, its witness the first non-commuting pair [i, j] of
    those indices.  |N_G(H) : H| counts the coset representatives t of H
    with H^t <= H: for M the level-0 transversal elements fa.to_fibre, one
    per fibre; for G_a, whose cosets are a's images b, the fa.sending(b),
    tried only at b in Fix(G_a), since H^t = H makes G_a = G_b.  A b that
    sending misses, which a correct report of a vertex-transitive G has
    none of, counts 0.  H is a tail, the pointwise stabilizer in G of the
    base points H.tail_points, so whether t normalises it is read off the
    images of those points under t (_normalizes): nothing is sifted.
    """
    lemma = "stabilizer-structure"
    out: list[AuditItem] = []
    if not fa.vertex_transitive:
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "group is not vertex-transitive"})]
    group, kernel = fa.vertex_group, fa.kernel
    if not fa.kernel_info["abelian_cover"]:
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "covering group is not abelian-regular"})]

    m_group, g_a, c_point = fa.m, fa.g_a, fa.c
    order_g = group.order()
    order_m = m_group.order()
    ok = order_g == order_m * g.n
    out.append(AuditItem(lemma, "index-G:M-equals-n",
                         "pass" if ok else "fail",
                         {"|G|": order_g, "|M|": order_m, "n": g.n}))

    # M = K : G_a  (orders multiply; K ∩ G_a = 1 as K is semiregular)
    ok = order_m == kernel.order() * g_a.order()
    out.append(AuditItem(lemma, "M=K:Ga", "pass" if ok else "fail",
                         {"|M|": order_m, "|K|": kernel.order(),
                          "|Ga|": g_a.order()}))

    # C <= C_G(K), checked; C_G(K) meet G_a <= C is the lemma above
    c_gens = [Permutation(c.img[:g.v]) for c in c_point.generators]
    pair = next(([i, j] for i, c in enumerate(c_gens)
                 for j, k in enumerate(kernel.generators)
                 if (c * k).img != (k * c).img), None)
    wit = {"|C|": c_point.order(), "|CG(K) meet Ga|": c_point.order()}
    if pair:
        wit.update({"|CG(K) meet Ga|": None, "non_commuting": pair})
    out.append(AuditItem(lemma, "C=CG(K)^Ga", "fail" if pair else "pass", wit))

    fix_ga = [u for u in range(g.v)
              if all(p[u] == u for p in g_a.generators)]
    idx = sum(1 for t in map(fa.sending, fix_ga)
              if t is not None and _normalizes(t, g_a))
    ok = len(fix_ga) == idx and g.v % len(fix_ga) == 0
    out.append(AuditItem(
        lemma, "Fix(Ga)=index-in-normalizer-divides-nr",
        "pass" if ok else "fail",
        {"|Fix(Ga)|": len(fix_ga), "|N:Ga|": idx, "nr": g.v}))

    fixed_fibres = [i for i in range(g.n)
                    if all(p[g.v + i] == g.v + i for p in m_group.generators)]
    # M is normalised by all or none of the coset M u
    idx_m = sum(1 for u in fa.to_fibre.values() if _normalizes(u, m_group))
    ok = (len(fixed_fibres) == idx_m
          and g.n % max(len(fixed_fibres), 1) == 0)
    out.append(AuditItem(
        lemma, "FixSigma(M)=index-in-normalizer-divides-n",
        "pass" if ok else "fail",
        {"|FixSigma(M)|": len(fixed_fibres), "|N:M|": idx_m, "n": g.n}))
    return out


def _normalizes(t: Permutation, sub: PermGroup) -> bool:
    """t^-1 sub t = sub, for a chain tail sub and t in its root group G.
    t normalises sub iff t^-1 does, that is, iff t s t^-1 lies in sub for
    every generator s.  That element of G lies in the tail iff it fixes
    sub.tail_points, that is, iff s fixes their images under t: no
    conjugate is formed and nothing is sifted."""
    images = [t[x] for x in sub.tail_points]
    return all(s[x] == x for s in sub.generators for x in images)
