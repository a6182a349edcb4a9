"""Benchmark inputs and the reference checks that do not use coverlab.

A cover is named by a spec: how to build it, its (n, r, mu) triple, the
order of its automorphism group and the dimensions of its two line
systems.  These references come from the literature, not from coverlab:
TS(q, m) = thas_somma(q, m) is a (q^2m, q, q^(2m-1))-cover with
theta = q^m - 1 and tau = -q^m - 1, so the tau side has dimension
q^m (q^m - 1) / 2 and the theta side q^m (q^m + 1) / 2, and |Aut| follows
from the group structure in _ts.  The three small covers have their
spectra and |Aut| pinned by hand.

The seed drives a vertex relabelling of every cover and the choice of the
matching swap that makes each perturbed copy.  The checks here use numpy
matrix products and plain Python sets only.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoverSpec:
    name: str
    build: tuple           # (constructor name, positional arguments)
    n: int
    r: int
    mu: int
    aut_order: int         # |Aut|
    dims: tuple[int, int]  # (d_tau, d_theta)


def _ts(q: int, m: int) -> CoverSpec:
    """TS(q, m), q = p^e: Aut = q^(2m+1) . Sp(2m, q) . GF(q)* . Gal(GF(q)),
    with |Sp(2m, q)| = q^(m^2) prod_{i<=m} (q^(2i) - 1)."""
    s = q ** m
    sp = q ** (m * m)
    for i in range(1, m + 1):
        sp *= q ** (2 * i) - 1
    aut = q ** (2 * m + 1) * sp * (q - 1) * prime_power(q)[1]
    return CoverSpec(f"TS({q},{m})", ("thas_somma", (q, m)), q ** (2 * m), q,
                     q ** (2 * m - 1), aut, (s * (s - 1) // 2,
                                             s * (s + 1) // 2))


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


SPECS = {s.name: s for s in (
    # hexagon (3,2,1): theta = 1, tau = -2, S has spectrum {1^2, -2^1}
    CoverSpec("hexagon", ("hexagon", ()), 3, 2, 1, 12, (1, 2)),
    # cube (4,2,2): theta = 1, tau = -3, S has spectrum {1^3, -3^1}
    CoverSpec("cube", ("cube", ()), 4, 2, 2, 48, (1, 3)),
    # icosahedron (6,2,2): theta = sqrt 5, tau = -sqrt 5, each 3 times
    CoverSpec("icosahedron", ("icosahedron", ()), 6, 2, 2, 120, (3, 3)),
    _ts(3, 1), _ts(2, 2), _ts(4, 1), _ts(5, 1), _ts(7, 1), _ts(3, 2),
    _ts(8, 1),
)}
# the formula against the orders known for the covers analyzed here
assert [SPECS[c].aut_order for c in ("TS(3,1)", "TS(4,1)", "TS(5,1)",
                                     "TS(3,2)")] == [1296, 23040, 60000,
                                                     25194240]


def build(constructions, spec: CoverSpec):
    fn, args = spec.build
    return getattr(constructions, fn)(*args)


def relabelling(rng: random.Random, v: int) -> list[int]:
    perm = list(range(v))
    rng.shuffle(perm)
    return perm


# -- independent cover check -----------------------------------------------------

def adjacency(v: int, edges) -> np.ndarray:
    a = np.zeros((v, v), dtype=np.float64)
    if len(edges):
        e = np.asarray(edges, dtype=np.int64)
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
    return a


def cover_triple(v: int, fibres, edges) -> tuple[int, int, int] | None:
    """(n, r, mu) when the graph is an antipodal cover of K_n, else None.

    Checks connectivity, cocliques, perfect matchings between fibres, a
    constant mu >= 1 on non-adjacent cross pairs and lambda = n-(r-1)mu-2 on
    edges, from A and A @ A (float64 products of 0/1 matrices with v <= 512
    are exact).
    """
    a = adjacency(v, edges)
    n, r = len(fibres), len(fibres[0])
    member = np.zeros((v, n), dtype=np.float64)
    for i, f in enumerate(fibres):
        member[list(f), i] = 1.0
    same = member @ member.T > 0
    per_fibre = a @ member
    if np.any(per_fibre[member > 0] != 0) or np.any(per_fibre[member == 0] != 1):
        return None
    reach = np.eye(v) + a
    for _ in range(3):
        reach = np.minimum(reach @ (np.eye(v) + a), 1.0)
    if np.any(reach == 0):
        return None
    common = a @ a
    cross = ~same
    far = cross & (a == 0)
    mus = np.unique(common[far])
    if len(mus) != 1 or mus[0] < 1:
        return None
    mu = int(mus[0])
    lams = np.unique(common[a > 0])
    if len(lams) != 1 or int(lams[0]) != n - (r - 1) * mu - 2:
        return None
    return n, r, mu


def matching_swap(rng: random.Random, fibres, edges):
    """Swap two edges of the matching between two random fibres.

    (u, w), (u', w') become (u, w'), (u', w): fibres stay cocliques and every
    fibre pair still induces a perfect matching, so only the mu and lambda
    axioms (or connectivity) can notice.
    """
    fibre_of = {x: i for i, f in enumerate(fibres) for x in f}
    i, j = rng.sample(range(len(fibres)), 2)
    u, u2 = rng.sample(list(fibres[i]), 2)
    edge_set = {tuple(sorted(e)) for e in edges}

    def partner(x):
        return next(y for y in fibres[j]
                    if tuple(sorted((x, y))) in edge_set)

    w, w2 = partner(u), partner(u2)
    assert fibre_of[w] == fibre_of[w2] == j
    edge_set -= {tuple(sorted((u, w))), tuple(sorted((u2, w2)))}
    edge_set |= {tuple(sorted((u, w2))), tuple(sorted((u2, w)))}
    return sorted(edge_set)


# -- independent group checks ----------------------------------------------------

def is_automorphism(a: np.ndarray, img) -> bool:
    p = np.asarray(img, dtype=np.int64)
    return p.shape == (a.shape[0],) and bool(np.array_equal(a[np.ix_(p, p)], a))


def closure(gens, v: int, limit: int) -> set[tuple] | None:
    """All products of the generators (image tuples), None above limit."""
    ident = tuple(range(v))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    if len(seen) >= limit:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def covering_group_problems(a: np.ndarray, fibres, gens, r: int) -> list[str]:
    """Problems with a claimed covering group: |K| = r, abelian, regular."""
    v = a.shape[0]
    out = []
    if not all(is_automorphism(a, g) for g in gens):
        out.append("generator is not an automorphism")
    elems = closure([tuple(g) for g in gens], v, 2 * r)
    if elems is None or len(elems) != r:
        return out + [f"|K| != {r}"]
    fibre_of = {x: i for i, f in enumerate(fibres) for x in f}
    if any(fibre_of[e[x]] != fibre_of[x] for e in elems for x in range(v)):
        out.append("element moves a fibre")
    if any(tuple(g[h[x]] for x in range(v)) != tuple(h[g[x]] for x in range(v))
           for g in gens for h in gens):
        out.append("not abelian")
    if any({e[f[0]] for e in elems} != set(f) for f in fibres):
        out.append("not regular on fibres")
    return out


def elementary_subgroup_count(p: int, e: int) -> int:
    """Proper nontrivial subgroups of (Z_p)^e: sum of Gaussian binomials."""
    total = 0
    for k in range(1, e):
        num = den = 1
        for i in range(k):
            num *= p ** (e - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total

