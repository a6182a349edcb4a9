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
subgroup order, which quotient_cover re-verifies rather than assumes.  The
audit functions turn the assertable group-theoretic identities (arc orbits
vs rank, displacement counts, fixed subgraphs of involutions, rank-3
subdegree relations) into pass/fail reports on concrete instances;
structure_audit reads its subgroups off two chains of G, with bases
(a, F - {a}) and (F*, K - 1, a).  Stages
that need a verified cover take the report verify_cover recorded on the
graph (graphcore.cover_report), and K is recorded there too, so a graph is
verified and its K found once however many stages use them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
    matching propagation (see _fibre_fixing_automorphisms), once per graph:
    the result is recorded on g.  No search is made, and K.generators lists
    every non-identity element of K.  Given a group, it must act by
    automorphisms of g (ValueError otherwise), and the kernel of its action
    on the fibres is group ∩ K: the elements of K that pass membership in
    group.  Returns (kernel: PermGroup, info: dict).
    """
    require_cover(g)
    if g._kernel is None:
        g._kernel = tuple(_fibre_fixing_automorphisms(g))
    kernel = PermGroup(g._kernel, g.v)
    if group is not None:
        require_automorphisms(g, group)
        kernel = PermGroup([k for k in kernel.generators if k in group], g.v)
    return kernel, kernel_info(g, kernel)


def kernel_info(g: CoverGraph, kernel: PermGroup) -> dict:
    """Order, abelianity and regularity on fibres of a fibre-fixing group."""
    order = kernel.order()
    abelian = kernel.is_abelian()
    regular = order == g.r and all(
        kernel.orbit(f[0]) == set(f) for f in g.fibres)
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


@dataclass
class FibreActionReport:
    group: PermGroup
    transitive: bool
    rank: int | None
    subdegrees: tuple[int, ...] | None


def require_automorphisms(g: CoverGraph, group: PermGroup) -> None:
    for p in group.generators:
        if not is_cover_automorphism(g, p):
            raise ValueError("group generator is not a graph automorphism")


def fibre_action(g: CoverGraph, group: PermGroup) -> FibreActionReport:
    """Induced group on the fibre set with its transitivity, rank, subdegrees."""
    require_automorphisms(g, group)
    image = PermGroup([fibre_image(g, p) for p in group.generators], g.n)
    transitive = image.is_transitive()
    if not transitive:
        return FibreActionReport(image, False, None, None)
    stab = image.point_stabilizer(0)
    orbs = stab.orbits()
    sizes = tuple(sorted(len(o) for o in orbs))
    return FibreActionReport(image, True, len(orbs), sizes)


def arc_orbit_count(g: CoverGraph, group: PermGroup) -> dict:
    """Number of orbits on ordered adjacent pairs, plus hypothesis checks.

    The rank identity (arc orbits = rank on fibres minus one) needs the group
    to be vertex-transitive and to contain the covering group with order
    exactly r; both are checked and reported, the count is returned anyway.
    covering_group requires g to be a cover and group to act on it.
    """
    _, kinfo = covering_group(g, group)
    arcs = []
    for u, w in g.edges:
        arcs.append((u, w))
        arcs.append((w, u))
    index = {a: i for i, a in enumerate(arcs)}
    seen = [False] * len(arcs)
    count = 0
    for start in range(len(arcs)):
        if seen[start]:
            continue
        count += 1
        queue = [arcs[start]]
        seen[start] = True
        while queue:
            u, w = queue.pop()
            for p in group.generators:
                im = (p[u], p[w])
                i = index[im]
                if not seen[i]:
                    seen[i] = True
                    queue.append(im)

    vertex_transitive = group.is_transitive()
    hypotheses_met = vertex_transitive and kinfo["order"] == g.r
    return {"arc_orbits": count,
            "vertex_transitive": vertex_transitive,
            "covering_group_order": kinfo["order"],
            "rank_identity_applicable": hypotheses_met}


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
    for idx, orb in enumerate(sorted(orbits, key=lambda o: o[0])):
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

    alpha = displacement_profile(g, p)
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
    t_int = -int(pp.tau) if pp.tau.is_integer else None

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


# -- rank-3 subdegree identities ----------------------------------------------

def subdegree_identity_check(g: CoverGraph, group: PermGroup) -> dict:
    """Check the rank-3 relations k1(lam-lam1) = k2(lam-lam2) and the
    mu-companion k1(mu-mu1) = k2(mu-mu2) for every fixed companion vertex.

    Needs the induced fibre group to have rank 3 and the vertex stabilizer to
    have exactly two orbits on the neighbourhood; otherwise inapplicable.
    """
    require_automorphisms(g, group)
    fa = fibre_action(g, group)
    if not fa.transitive or fa.rank != 3:
        return {"applicable": False,
                "reason": f"fibre action rank is {fa.rank}, need 3"}
    rep = require_cover(g)
    lam, mu = rep.lam, rep.mu

    a = 0
    stab = group.point_stabilizer(a)
    nbrs = g.neighbours(a)
    orbit_sets = []
    seen: set[int] = set()
    for x in nbrs:
        if x in seen:
            continue
        orb = stab.orbit(x) & set(nbrs)
        orb_full = stab.orbit(x)
        if orb_full != orb:
            return {"applicable": False,
                    "reason": "stabilizer orbit leaves the neighbourhood"}
        seen |= orb
        orbit_sets.append(sorted(orb))
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
        star_nbrs = g.neighbours(astar)
        star_orbits = []
        seen = set()
        for x in star_nbrs:
            if x in seen:
                continue
            orb = sorted(stab.orbit(x))
            seen |= set(orb)
            star_orbits.append(orb)
        sized = {}
        for orb in star_orbits:
            sized.setdefault(len(orb), []).append(orb)
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

# seed of the draws behind structure_audit's chains; |G| certifies each chain
_AUDIT_SEED = 1


def structure_audit(g: CoverGraph, group: PermGroup) -> list[AuditItem]:
    """Assertable identities tying M = G_{F}, C = G_F, K and G_a together.

    Checks, on the concrete group: C = C_G(K) meet G_a and M = K : G_a
    (semidirect with trivial intersection); the index |G : M| equals the
    fibre count; |Fix(G_a)| = |N_G(G_a) : G_a| divides nr; and
    |Fix_Sigma(M)| = |N_G(M) : M| divides n.  Each group is a tail of one
    of two chains of G (_audit_chains), and nothing scans elements: on the
    vertices with base (a, F - {a}), G_a and C; on the vertices, a point F*
    per fibre and a point per element of K - 1 (by conjugation) with base
    (F*, K - 1, a), M and C_G(K) meet G_a, as G_a <= M.  |N_G(H) : H|
    counts the first chain's transversal elements t (one per fibre for M)
    with H^t <= H.
    """
    lemma = "stabilizer-structure"
    out: list[AuditItem] = []
    if not group.is_transitive():
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "group is not vertex-transitive"})]
    kernel, kinfo = covering_group(g, group)
    if not kinfo["abelian_cover"]:
        return [AuditItem(lemma, "applicability", "inapplicable",
                          {"reason": "covering group is not abelian-regular"})]

    a = 0
    nf, nk = len(g.fibres[g.fibre_of[a]]), len(kernel.generators)
    chain1, chain2, extend = _audit_chains(g, group, kernel)
    g_a, c_point = chain1.stabilizer(1), chain1.stabilizer(nf)
    moves = chain1.transversal()              # t_b sends a to b
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
    """structure_audit's two chains of G, with a = 0 and F its fibre, and
    the map extend from G to the second chain's group.

    The first acts on the vertices with base (a, F - {a}).  The second acts
    on the vertices, a point F* per fibre and a point per element of
    kernel.generators (K - 1, as K is regular), with base (F*, K - 1, a).
    Both are built from |G| by known-order sifting of seeded draws from
    G's own chain.  Returns (chain1, chain2, extend).
    """
    a = 0
    fa_idx = g.fibre_of[a]
    fibre = g.fibres[fa_idx]
    order_g = group.order()
    chain1 = PermGroup.from_order(
        group.generators, g.v, order_g, group.random_elements(_AUDIT_SEED),
        base_hint=(a, *(x for x in fibre if x != a)))
    ks = kernel.generators
    k_point = {k.img: g.v + g.n + j for j, k in enumerate(ks)}

    def extend(p: Permutation) -> Permutation:
        """p on the vertices, on the point v + i of each fibre i and, by
        k -> p^-1 k p, on the point k_point[k] of each k in ks."""
        inv = p.inverse()
        return Permutation(p.img
                           + tuple(g.v + g.fibre_of[p[f[0]]] for f in g.fibres)
                           + tuple(k_point[(inv * k * p).img] for k in ks))

    chain2 = PermGroup.from_order(
        [extend(p) for p in group.generators], g.v + g.n + len(ks), order_g,
        map(extend, group.random_elements(_AUDIT_SEED)),
        base_hint=(g.v + fa_idx, *k_point.values(), a))
    return chain1, chain2, extend


def _normalizes(t: Permutation, sub: PermGroup) -> bool:
    """t^-1 sub t = sub, by membership of the conjugated generators."""
    inv = t.inverse()
    return all(inv * s * t in sub for s in sub.generators)
