"""Group actions on covers: covering group, fibre action, quotients, audits.

The covering group K of a cover is found without a search.  A fibre-fixing
automorphism of a connected cover is determined by the image of one vertex,
because each neighbour's image is the unique neighbour of the image in that
neighbour's fibre (Godsil-Hensel 1992).  covering_group tries the r images
of vertex 0 in its fibre and propagates each along the perfect matchings
between fibres.  Given a group, which must act by automorphisms of a
verified cover, the kernel of its action on the fibre set is group ∩ K: the
r - 1 non-identity elements of K are sifted through the group's own chain,
and no second chain is built.  Quotients by subgroups of the covering group
inherit the cover structure with fibre size divided and mu multiplied by the
subgroup order, which quotient_cover re-verifies rather than assumes.
fibre_action alone checks a group G and takes its kernel, and it builds G's
one chain on the vertices with base (a, F - {a}), a = 0 and F its fibre,
from |G| by known-order sifting.  Its report holds that chain, and every
later stage reads the vertex stabilizer G_a, the pointwise stabilizer C of
F and the transversal off it: the fibre rank and subdegrees (the orbits of
the fibre stabilizer, generated by G_a and the transversal elements into
F), the arc orbits (G's orbits on arcs from a are G_a's orbits on N(a)),
the rank-3 subdegree identities and structure_audit, which builds only a
second chain on an extended domain for M = G_{F} and C_G(K) meet G_a.
Every orbit here comes from PermGroup.orbits.  The audit functions turn
the assertable group-theoretic identities (arc orbits vs rank, displacement
counts, fixed subgraphs of involutions, rank-3 subdegree relations) into
pass/fail reports on concrete instances, and involution_types draws one
involution of each displacement type from seeded uniform draws, with no
element scan.  A verified cover's report (cover_report) and its K with K's
info are recorded on the graph, so a graph is verified and its K found once
however many stages use them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm

import numpy as np

from .exact import is_integral
from .graphcore import (CoverGraph, bfs_layers, cover_report, fibre_masks,
                        params_of, require_cover, verify_cover)
from .perms import PermGroup, Permutation


# -- basic actions -----------------------------------------------------------

def fibre_image(g: CoverGraph, perm: Permutation) -> Permutation:
    """The permutation induced on the fibre set."""
    return Permutation(tuple(g.fibre_of[perm[f[0]]] for f in g.fibres))


def is_cover_automorphism(g: CoverGraph, perm) -> bool:
    p = perm if isinstance(perm, Permutation) else Permutation(perm)
    if p.degree != g.v:
        return False
    a = g.adjacency_matrix()
    img = np.array(p.img)
    return bool((a[img][:, img] == a).all())


def fixes_fibres(g: CoverGraph, perm: Permutation) -> bool:
    """True when perm maps every fibre of g onto itself."""
    fo = g.fibre_of
    return all(fo[perm[x]] == fo[x] for x in range(g.v))


def covering_group(g: CoverGraph, group: PermGroup | None = None):
    """Kernel of the action on fibres, with regularity/abelianity report.

    g must be a cover: the report verify_cover recorded on g is used, g is
    verified only when none is recorded, and GraphStructureError names the
    failed axioms otherwise.  K is every fibre-fixing automorphism, found by
    matching propagation (see _fibre_fixing_automorphisms) once per graph
    and recorded on g with its kernel_info; every call returns that record.
    No search is made, and K.generators lists every non-identity element of
    K.  Given a group, it must act by automorphisms of g (ValueError
    otherwise), and the kernel of its action on the fibres is group ∩ K,
    the record itself when group contains K.  Returns (kernel, info).
    """
    require_cover(g)
    if g._kernel is None:
        kernel = PermGroup(_fibre_fixing_automorphisms(g), g.v)
        g._kernel = kernel, kernel_info(g, kernel)
    if group is None:
        return g._kernel
    require_automorphisms(g, group)
    full = g._kernel[0].generators
    kernel = PermGroup([k for k in full if k in group], g.v)
    if kernel.generators == full:
        return g._kernel
    return kernel, kernel_info(g, kernel)


def kernel_info(g: CoverGraph, kernel: PermGroup) -> dict:
    """Order, abelianity and regularity on fibres of a fibre-fixing group."""
    order = kernel.order()
    abelian = kernel.is_abelian()
    regular = order == g.r and kernel.orbits() == [list(f) for f in g.fibres]
    return {"order": order, "is_abelian": abelian,
            "regular_on_fibres": regular,
            "abelian_cover": abelian and regular}


def _fibre_fixing_automorphisms(g: CoverGraph) -> list[Permutation]:
    """Every fibre-fixing automorphism of a verified cover, identity included.

    match[x, j] is the neighbour of x in fibre j, the single bit of
    adj[x] & fibre_mask[j] (x itself for its own fibre).  Each image c of
    vertex 0 in its fibre determines img[y] = match[img[x], fibre_of[y]]
    along a BFS tree, one layer at a time.  The candidate is kept when img
    is a bijection with img[match[x, j]] = match[img[x], j] for every x and
    j, i.e. every edge goes to an edge.  The cost is O(r v n).
    """
    masks = fibre_masks(g)
    match = np.array([[(ax & m).bit_length() - 1 for m in masks]
                      for ax in g.adj], dtype=np.intp)
    fibre = np.array(g.fibre_of, dtype=np.intp)
    match[np.arange(g.v), fibre] = np.arange(g.v)

    # (layer, a neighbour of each layer vertex in the layer before)
    steps = []
    before = 1
    for layer in bfs_layers(g.adj, 0)[1:]:
        parents = [(g.adj[y] & before).bit_length() - 1 for y in layer]
        steps.append((np.array(layer), np.array(parents)))
        before = sum(1 << y for y in layer)

    found = []
    for c in g.fibres[g.fibre_of[0]]:
        img = np.empty(g.v, dtype=np.intp)
        img[0] = c
        for layer, parents in steps:
            img[layer] = match[img[parents], fibre[layer]]
        if (np.array_equal(img[match], match[img])
                and np.unique(img).size == g.v):
            found.append(Permutation(img.tolist()))
    return found


# seed of the draws behind the known-order chains of G that fibre_action and
# _audit_chains build; |G| certifies each chain, so the seed changes no result
_CHAIN_SEED = 1


@dataclass
class FibreActionReport:
    """fibre_action's findings on G = vertex_group, with a = 0 and F its
    fibre.  group is G's image on the fibres; kernel is G ∩ K.  chain is G
    on the vertices with base (a, F - {a}): chain.stabilizer(1) is G_a,
    chain.stabilizer(|F|) is C, the pointwise stabilizer of F, and
    chain.transversal() sends b in a^G to an element t_b mapping a to b.
    Every later stage reads G_a, C and the t_b from it."""
    group: PermGroup
    transitive: bool
    rank: int | None
    subdegrees: tuple[int, ...] | None
    vertex_group: PermGroup
    kernel: PermGroup
    kernel_info: dict
    vertex_transitive: bool
    chain: PermGroup


def require_automorphisms(g: CoverGraph, group: PermGroup) -> None:
    for p in group.generators:
        if not is_cover_automorphism(g, p):
            raise ValueError("group generator is not a graph automorphism")


def fibre_action(g: CoverGraph, group: PermGroup) -> FibreActionReport:
    """Induced group on the fibre set with its transitivity, rank and
    subdegrees, group ∩ K with its info, and group's chain on base
    (a, F - {a}), a = 0.  covering_group checks that g is a verified cover
    and group acts by automorphisms.  The chain is built once, from |G| by
    known-order sifting of seeded draws from G's own chain.  The fibre
    stabilizer G_F is generated by G_a and the t_b with b in F, as every
    element of G_F sends a to some b in F ∩ a^G; the orbits of its image
    are the subdegrees, and no chain of the fibre group is built."""
    kernel, kinfo = covering_group(g, group)
    image = PermGroup([fibre_image(g, p) for p in group.generators], g.n)
    a = 0
    fibre = g.fibres[g.fibre_of[a]]
    chain = PermGroup.from_order(
        group.generators, g.v, group.order(),
        group.random_elements(_CHAIN_SEED),
        base_hint=(a, *(x for x in fibre if x != a)))
    rank = sizes = None
    if image.is_transitive():
        moves = chain.transversal()
        g_f = chain.stabilizer(1).generators + [moves[b] for b in fibre
                                                 if b in moves]
        orbs = PermGroup([fibre_image(g, p) for p in g_f], g.n).orbits()
        rank, sizes = len(orbs), tuple(sorted(len(o) for o in orbs))
    return FibreActionReport(image, rank is not None, rank, sizes, group,
                             kernel, kinfo, group.is_transitive(), chain)


def arc_orbit_count(g: CoverGraph, fa: FibreActionReport) -> dict:
    """Number of orbits on ordered adjacent pairs, plus hypothesis checks.

    fa is fibre_action's report on the group G counted.  The G-orbits on
    the arcs (a, w) with a fixed correspond to the G_a-orbits on N(a), so
    the count sums those over G's vertex orbits, each with its least point
    a.  The orbit of a = 0 reads G_a off fa.chain; any further orbit, which
    only a group that is not vertex-transitive has, takes point_stabilizer.
    The rank identity (arc orbits = rank on fibres minus one) needs G to be
    vertex-transitive and to contain the covering group with order exactly
    r; both are read off fa and reported, and the count is returned anyway.
    """
    group = fa.vertex_group
    count = 0
    for orbit in group.orbits():
        a = orbit[0]
        g_a = fa.chain.stabilizer(1) if a == 0 else group.point_stabilizer(a)
        count += sum(g.adj[a] >> o[0] & 1 for o in g_a.orbits())

    vt, order = fa.vertex_transitive, fa.kernel_info["order"]
    return {"arc_orbits": count, "vertex_transitive": vt,
            "covering_group_order": order,
            "rank_identity_applicable": vt and order == g.r}


# -- quotient covers -----------------------------------------------------------

class QuotientError(ValueError):
    pass


def quotient_cover(g: CoverGraph, sub: PermGroup) -> CoverGraph:
    """Quotient by a subgroup of the covering group, re-verified.

    Requires every generator to fix each fibre setwise and 1 <= |U| < r,
    with U semiregular.  The U-orbits, numbered by least element, are the
    quotient's vertices; with P the v x m orbit indicator, Q = P^T (A P)
    counts the edges of g between two orbits, and the quotient's edges are
    the off-diagonal pairs with Q > 0: every edge of g between different
    orbits, so nothing assumes U <= Aut.  The result is checked by
    verify_cover to be an (n, r/|U|, mu |U|)-cover; a failure raises, since
    it would contradict the quotient-closure property for valid input.
    """
    if sub.degree != g.v:
        raise QuotientError(f"subgroup acts on {sub.degree} points, "
                            f"not on the {g.v} vertices")
    if not all(fixes_fibres(g, p) for p in sub.generators):
        raise QuotientError("subgroup is not fibre-fixing")
    u_order = sub.order()
    if u_order >= g.r:
        raise QuotientError(f"|U| = {u_order} must be smaller than r = {g.r}")
    if g.r % u_order != 0:
        raise QuotientError(f"|U| = {u_order} does not divide r = {g.r}")

    orbits = sub.orbits()
    if any(len(o) != u_order for o in orbits):
        raise QuotientError("subgroup does not act semiregularly")
    orbit_of = [0] * g.v
    for idx, orb in enumerate(orbits):
        for x in orb:
            orbit_of[x] = idx
    p = np.zeros((g.v, len(orbits)), dtype=np.float32)
    p[np.arange(g.v), orbit_of] = 1
    # sums of nonnegative terms: Q > 0 is exact at any float precision
    q = p.T @ (g.adjacency_matrix().astype(np.float32) @ p)
    edges = np.argwhere(np.triu(q > 0, 1))
    fibres = [sorted({orbit_of[x] for x in f}) for f in g.fibres]
    quot = CoverGraph(fibres, edges)

    base = cover_report(g)
    if base.is_cover:
        rep = verify_cover(quot)
        if not (rep.is_cover and (rep.n, rep.r) == (g.n, g.r // u_order)
                and rep.mu == base.mu * u_order):
            raise QuotientError(
                f"quotient is not an ({g.n}, {g.r // u_order}, "
                f"{base.mu * u_order})-cover")
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
    return _displacement_counts(g, p)


def _displacement_counts(g: CoverGraph, p: Permutation):
    """displacement_profile for an automorphism p already checked."""
    alpha = [0, 0, 0, 0]
    for u in range(g.v):
        w = p[u]
        if w == u:
            alpha[0] += 1
        elif g.fibre_of[w] == g.fibre_of[u]:
            alpha[3] += 1
        elif g.has_edge(u, w):
            alpha[1] += 1
        else:
            alpha[2] += 1
    return tuple(alpha)


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
    """Fixed-subgraph identities for an involution with Fix != empty.

    Checks: the fixed subgraph is regular of degree l-1 on l*f vertices,
    the displacement identities alpha_3 = (r-f) l and alpha_1+alpha_2 =
    (n-l) r, plus the case distinctions that are assertable on a concrete
    cover (l = 1: fixed subgraph is one fibre; f = 1, l > 1: it is a clique;
    outside vertices see at most l fixed vertices).  Inequality chains that
    presuppose lambda >= mu are marked inapplicable otherwise.
    """
    p = x if isinstance(x, Permutation) else Permutation(x)
    lemma = "involution-fixed-subgraph"
    out: list[AuditItem] = []
    if not is_cover_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the cover")
    if p.order() != 2:
        raise ValueError("permutation is not an involution")

    fixed = [u for u in range(g.v) if p[u] == u]
    if not fixed:
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "fixed-point-free involution"})]
    rep = require_cover(g)
    n, r, mu, lam = rep.n, rep.r, rep.mu, rep.lam

    fixed_set = set(fixed)
    fixed_mask = sum(1 << u for u in fixed)
    fixed_fibres = [i for i, f in enumerate(g.fibres)
                    if all(g.fibre_of[p[z]] == i for z in f)]
    l = len(fixed_fibres)
    per_fibre = [len(fixed_set & set(g.fibres[i])) for i in fixed_fibres]
    f_counts = sorted(set(per_fibre))
    if len(f_counts) != 1:
        out.append(AuditItem(lemma, "constant-f", "fail",
                             {"per_fibre": per_fibre}))
        return out
    f = f_counts[0]
    out.append(AuditItem(lemma, "constant-f", "pass", {"f": f, "l": l}))

    ok = len(fixed) == l * f
    out.append(AuditItem(lemma, "size-lf", "pass" if ok else "fail",
                         {"fixed": len(fixed), "l*f": l * f}))
    degs = sorted({(g.adj[u] & fixed_mask).bit_count() for u in fixed})
    ok = degs == [l - 1]
    out.append(AuditItem(lemma, "regular-degree-l-1",
                         "pass" if ok else "fail",
                         {"degrees": degs, "expected": l - 1}))

    alpha = _displacement_counts(g, p)
    ok = alpha[3] == (r - f) * l
    out.append(AuditItem(lemma, "alpha3", "pass" if ok else "fail",
                         {"alpha3": alpha[3], "(r-f)l": (r - f) * l}))
    ok = alpha[1] + alpha[2] == (n - l) * r
    out.append(AuditItem(lemma, "alpha1+alpha2", "pass" if ok else "fail",
                         {"alpha1+alpha2": alpha[1] + alpha[2],
                          "(n-l)r": (n - l) * r}))

    # vertices outside see at most l fixed vertices
    worst = max(((g.adj[u] & fixed_mask).bit_count()
                 for u in range(g.v) if u not in fixed_set), default=0)
    out.append(AuditItem(lemma, "outside-neighbours<=l",
                         "pass" if worst <= l else "fail",
                         {"max_outside": worst, "l": l}))

    pp = params_of(g)
    t_int = -int(pp.tau) if is_integral(pp.tau) else None

    if l == 1:
        fibre = set(g.fibres[fixed_fibres[0]])
        ok = alpha[3] == 0 and fixed_set <= fibre
        out.append(AuditItem(lemma, "case-l=1", "pass" if ok else "fail",
                             {"alpha3": alpha[3]}))
        if t_int is not None:
            out.append(AuditItem(lemma, "case-l=1-t-even",
                                 "pass" if t_int % 2 == 0 else "fail",
                                 {"t": t_int}))
        else:
            out.append(AuditItem(lemma, "case-l=1-t-even", "inapplicable",
                                 {"reason": "tau is not an integer"}))
    if f == 1 and l > 1:
        clique = degs == [len(fixed) - 1]
        out.append(AuditItem(lemma, "case-f=1-clique",
                             "pass" if clique else "fail", {"l": l}))
        if t_int is not None and t_int >= 2:
            bound = Fraction(r * mu, t_int - 1)
            out.append(AuditItem(lemma, "case-f=1-hoffman",
                                 "pass" if l <= bound else "fail",
                                 {"l": l, "r*mu/(t-1)": str(bound)}))
    if l > 1:
        if lam >= mu:
            xset = [u for u in range(g.v) if u not in fixed_set
                    and g.adj[u] & fixed_mask]
            lhs = Fraction(len(xset), n - l)
            middle = len(fixed)
            rhs = Fraction((lam - mu) * alpha[1], n - l) + r * mu
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


# involution_types stops after INVOLUTION_DRAWS draws, or sooner once
# INVOLUTION_IDLE_DRAWS draws in a row have brought no new type
INVOLUTION_SEED = 1
INVOLUTION_DRAWS = 400
INVOLUTION_IDLE_DRAWS = 100


def involution_types(g: CoverGraph, group: PermGroup):
    """One involution of each type in group, and the number of draws made.

    The type of an involution is its displacement profile, whose first
    entry counts its fixed vertices.  It is invariant under conjugation by
    automorphisms, so the set of types does not depend on the labelling.  Each draw p
    is uniform in group (random_elements, seeded by INVOLUTION_SEED), and p
    of even order o gives the involution x = p^(o/2): every involution is
    drawn as itself, and a larger class is drawn more often.  One cycles()
    pass gives o and x: a cycle of length c turns o/2 mod c steps, which is
    0 or c/2, so x swaps the points c/2 apart on each cycle that turns, and
    the type is counted on those pairs.  Drawing stops after
    INVOLUTION_DRAWS draws, or once INVOLUTION_IDLE_DRAWS draws in a row
    have brought no new type.  group must act by automorphisms of the
    verified cover g.  Returns ([(type, x)] sorted by type, draws).
    """
    fibre_of, adj = g.fibre_of, g.adj
    found: dict[tuple, Permutation] = {}
    idle = draws = 0
    for p in group.random_elements(INVOLUTION_SEED):
        if draws == INVOLUTION_DRAWS or idle == INVOLUTION_IDLE_DRAWS:
            break
        draws += 1
        idle += 1
        cycles = p.cycles()
        half, odd = divmod(reduce(lcm, map(len, cycles), 1), 2)
        if odd:
            continue
        pairs = [(c[i], c[i + len(c) // 2]) for c in cycles if half % len(c)
                 for i in range(len(c) // 2)]
        same = sum(fibre_of[u] == fibre_of[w] for u, w in pairs)
        near = sum(adj[u] >> w & 1 for u, w in pairs)
        kind = (g.v - 2 * len(pairs), 2 * near,
                2 * (len(pairs) - same - near), 2 * same)
        if kind not in found:
            img = list(range(g.v))
            for u, w in pairs:
                img[u], img[w] = w, u
            found[kind] = Permutation(img)
            idle = 0
    return sorted(found.items()), draws


# -- rank-3 subdegree identities ----------------------------------------------

def subdegree_identity_check(g: CoverGraph, fa: FibreActionReport) -> dict:
    """Check the rank-3 relations k1(lam-lam1) = k2(lam-lam2) and the
    mu-companion k1(mu-mu1) = k2(mu-mu2) for every fixed companion vertex.

    fa is fibre_action's report on the group checked, fa.vertex_group,
    and the vertex stabilizer G_a (a = 0) is read off its chain.  Needs the
    induced fibre group to have rank 3 and G_a to have exactly two orbits
    on the neighbourhood; otherwise inapplicable.
    """
    if not fa.transitive or fa.rank != 3:
        return {"applicable": False,
                "reason": f"fibre action rank is {fa.rank}, need 3"}
    rep = require_cover(g)
    lam, mu = rep.lam, rep.mu

    a = 0
    stab = fa.chain.stabilizer(1)
    orbits = stab.orbits()

    def meeting(u: int) -> list[list[int]]:
        """The stabilizer orbits that meet N(u)."""
        return [o for o in orbits if any(g.adj[u] >> x & 1 for x in o)]

    orbit_sets = meeting(a)
    if sum(map(len, orbit_sets)) != g.degree(a):
        return {"applicable": False,
                "reason": "stabilizer orbit leaves the neighbourhood"}
    if len(orbit_sets) != 2:
        return {"applicable": False,
                "reason": f"{len(orbit_sets)} stabilizer orbits on the "
                          "neighbourhood, need 2"}
    orbit_sets.sort(key=len)
    (x1, x2) = orbit_sets
    k1, k2 = len(x1), len(x2)

    def lam_inside(orb) -> int:
        vals = {sum(1 for w in orb if g.has_edge(x, w)) for x in orb}
        assert len(vals) == 1  # constant on a stabilizer orbit
        return vals.pop()

    lam1, lam2 = lam_inside(x1), lam_inside(x2)
    eq_lambda = k1 * (lam - lam1) == k2 * (lam - lam2)
    result = {"applicable": True, "k1": k1, "k2": k2,
              "lambda1": lam1, "lambda2": lam2,
              "eq_lambda_holds": eq_lambda, "mu_checks": []}

    # companion identity for each a* fixed by the stabilizer in F(a) - {a}
    home = [x for x in g.fibres[g.fibre_of[a]] if x != a]
    fixed_companions = [x for x in home
                        if all(s[x] == x for s in stab.generators)]
    for astar in fixed_companions:
        star_orbits = meeting(astar)
        sized = {}
        for orb in star_orbits:
            sized.setdefault(len(orb), []).append(orb)
        # an orbit leaving N(a*) takes the sizes' sum past k1 + k2
        if sorted(len(o) for o in star_orbits) != sorted([k1, k2]):
            result["mu_checks"].append(
                {"a_star": astar, "status": "inapplicable",
                 "reason": "orbit sizes on the companion neighbourhood "
                           "do not match (k1, k2)"})
            continue
        # all assignments of star orbits to (k1, k2); ambiguous when k1 == k2
        assignments = []
        if k1 != k2:
            assignments.append((sized[k1][0], sized[k2][0]))
        else:
            o1, o2 = sized[k1][0], sized[k1][1]
            assignments.extend([(o1, o2), (o2, o1)])
        for x1s, x2s in assignments:
            mu1 = len(set(g.neighbours(x1s[0])) & set(x1))
            mu2 = len(set(g.neighbours(x2[0])) & set(x2s))
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
    |Fix_Sigma(M)| = |N_G(M) : M| divides n.  Each group is a tail of one
    of two chains of G, and nothing scans elements: G_a and C are tails of
    fa.chain, on the vertices with base (a, F - {a}); M and C_G(K) meet
    G_a are tails of _audit_chains' chain, on the vertices, a point F* per
    fibre and a point per element of K - 1 (by conjugation) with base
    (F*, K - 1, a), as G_a <= M.  |N_G(H) : H| counts fa.chain's
    transversal elements t (one per fibre for M) with H^t <= H.
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

    a = 0
    nf, nk = len(g.fibres[g.fibre_of[a]]), len(kernel.generators)
    chain2, extend = _audit_chains(g, group, kernel)
    g_a, c_point = fa.chain.stabilizer(1), fa.chain.stabilizer(nf)
    moves = fa.chain.transversal()            # t_b sends a to b
    m_group = chain2.stabilizer(1)
    cgk_a = chain2.stabilizer(nk + 2)

    order_g = group.order()
    order_m = m_group.order()
    ok = order_g == order_m * g.n
    out.append(AuditItem(lemma, "index-G:M-equals-n",
                         "pass" if ok else "fail",
                         {"|G|": order_g, "|M|": order_m, "n": g.n}))

    # M = K : G_a  (orders multiply; no non-identity element of K fixes a)
    ok = (order_m == kernel.order() * g_a.order()
          and all(k[a] != a for k in kernel.generators))
    out.append(AuditItem(lemma, "M=K:Ga", "pass" if ok else "fail",
                         {"|M|": order_m, "|K|": kernel.order(),
                          "|Ga|": g_a.order()}))

    ok = (cgk_a.order() == c_point.order()
          and all(Permutation(p.img[:g.v]) in c_point
                  for p in cgk_a.generators)
          and all(extend(p) in cgk_a for p in c_point.generators))
    out.append(AuditItem(lemma, "C=CG(K)^Ga", "pass" if ok else "fail",
                         {"|C|": c_point.order(),
                          "|CG(K) meet Ga|": cgk_a.order()}))

    fix_ga = [u for u in range(g.v)
              if all(p[u] == u for p in g_a.generators)]
    idx = sum(1 for t in moves.values() if _normalizes(t, g_a))
    ok = len(fix_ga) == idx and g.v % len(fix_ga) == 0
    out.append(AuditItem(
        lemma, "Fix(Ga)=index-in-normalizer-divides-nr",
        "pass" if ok else "fail",
        {"|Fix(Ga)|": len(fix_ga), "|N:Ga|": idx, "nr": g.v}))

    fixed_fibres = [i for i in range(g.n)
                    if all(p[g.v + i] == g.v + i for p in m_group.generators)]
    # moves[f[0]] sends F to fibre f; M is normalised by all or none of those
    idx_m = sum(1 for f in g.fibres
                if _normalizes(extend(moves[f[0]]), m_group))
    ok = (len(fixed_fibres) == idx_m
          and g.n % max(len(fixed_fibres), 1) == 0)
    out.append(AuditItem(
        lemma, "FixSigma(M)=index-in-normalizer-divides-n",
        "pass" if ok else "fail",
        {"|FixSigma(M)|": len(fixed_fibres), "|N:M|": idx_m, "n": g.n}))
    return out


def _audit_chains(g: CoverGraph, group: PermGroup, kernel: PermGroup):
    """structure_audit's chain of G on an extended domain, with a = 0, and
    the map extend from G to that chain's group.

    The chain acts on the vertices, a point F* per fibre and a point per
    element of kernel.generators (K - 1, as K is regular), with base
    (F*, K - 1, a).  It is built from |G| by known-order sifting of seeded
    draws from G's own chain; G's chain on the vertices with base
    (a, F - {a}) is fibre_action's.  Returns (chain, extend).
    """
    a = 0
    ks = kernel.generators
    k_point = {k.img: g.v + g.n + j for j, k in enumerate(ks)}

    def extend(p: Permutation) -> Permutation:
        """p on the vertices, on the point v + i of each fibre i and, by
        k -> p^-1 k p, on the point k_point[k] of each k in ks."""
        inv = p.inverse()
        return Permutation(p.img
                           + tuple(g.v + g.fibre_of[p[f[0]]] for f in g.fibres)
                           + tuple(k_point[(inv * k * p).img] for k in ks))

    chain = PermGroup.from_order(
        [extend(p) for p in group.generators], g.v + g.n + len(ks),
        group.order(), map(extend, group.random_elements(_CHAIN_SEED)),
        base_hint=(g.v + g.fibre_of[a], *k_point.values(), a))
    return chain, extend


def _normalizes(t: Permutation, sub: PermGroup) -> bool:
    """t^-1 sub t = sub, by membership of the conjugated generators."""
    inv = t.inverse()
    return all(inv * s * t in sub for s in sub.generators)
