"""Permutations and small permutation groups with a stabilizer chain.

The chain is built by a deterministic Schreier-Sims procedure: base points
are prepended from an optional hint (enabling pointwise set stabilizers,
e.g. the kernel of an action), otherwise chosen as the first moved point.
Orders, membership, stabilizers, transversals and lazy element iteration
all come from the chain, so orders in the tens of millions are fine at
degree <= about 1000 as long as nothing scans every element.  A stabilizer
is a chain tail and runs no Schreier-Sims (Seress 2003, section 4.1).
"""
from __future__ import annotations

from functools import reduce
from math import gcd


class Permutation:
    """A permutation of 0..n-1 stored as an image tuple.

    Composition is left-to-right: (p * q)(x) = q(p(x)), matching the
    exponent convention x^(pq) = (x^p)^q.
    """

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    @property
    def degree(self) -> int:
        return len(self.img)

    def __getitem__(self, x: int) -> int:
        return self.img[x]

    def __call__(self, x: int) -> int:
        return self.img[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        oi = other.img
        return Permutation(tuple(oi[x] for x in self.img))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.img)
        for i, x in enumerate(self.img):
            inv[x] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.img))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def order(self) -> int:
        out = 1
        for c in self.cycles():
            out = out * len(c) // gcd(out, len(c))
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.img)
        out = []
        for i in range(len(self.img)):
            if seen[i] or self.img[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.img[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.img[j]
            out.append(tuple(cyc))
        return out

    def fixed_points(self) -> list[int]:
        return [i for i, x in enumerate(self.img) if i == x]

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        return "Permutation(" + "".join(str(c) for c in cyc) + ")"

    def to_json(self) -> list[int]:
        return list(self.img)


def _first_moved(g: Permutation) -> int:
    for i, x in enumerate(g.img):
        if i != x:
            return i
    raise ValueError("identity has no moved point")


class _Level:
    # Stabilizer tails share levels: none is mutated once its chain is built.
    __slots__ = ("point", "orbit")

    def __init__(self, point: int):
        self.point = point
        self.orbit: dict[int, Permutation] = {}


class PermGroup:
    """Group generated by permutations of a common degree."""

    def __init__(self, generators, degree: int | None = None, base_hint=()):
        gens = [g if isinstance(g, Permutation) else Permutation(g)
                for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("need a degree for the trivial group")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different point sets")
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self._base_hint = tuple(base_hint)
        self._levels: list[_Level] | None = None
        self._strong: list[Permutation] | None = None

    # -- stabilizer chain ----------------------------------------------------

    def _chain(self):
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self):
        ident = Permutation.identity(self.degree)
        levels: list[_Level] = []
        strong: list[Permutation] = list(self.generators)

        def add_level(pt: int):
            lvl = _Level(pt)
            lvl.orbit[pt] = ident
            levels.append(lvl)

        for b in self._base_hint:
            add_level(b)
        for g in strong:
            if all(g[l.point] == l.point for l in levels):
                add_level(_first_moved(g))

        def gens_at(i: int) -> list[Permutation]:
            pts = [l.point for l in levels[:i]]
            return [g for g in strong
                    if all(g[p] == p for p in pts)]

        def sift(g: Permutation, start: int):
            for i in range(start, len(levels)):
                lvl = levels[i]
                x = g[lvl.point]
                if x not in lvl.orbit:
                    return g, i
                g = g * lvl.orbit[x].inverse()
            return g, len(levels)

        def rebuild_orbit(i: int):
            lvl = levels[i]
            gens = gens_at(i)
            lvl.orbit = {lvl.point: ident}
            queue = [lvl.point]
            while queue:
                x = queue.pop()
                tx = lvl.orbit[x]
                for s in gens:
                    y = s[x]
                    if y not in lvl.orbit:
                        lvl.orbit[y] = tx * s
                        queue.append(y)

        i = len(levels) - 1
        while i >= 0:
            rebuild_orbit(i)
            lvl = levels[i]
            gens = gens_at(i)
            dirty = None
            for x in sorted(lvl.orbit):
                tx = lvl.orbit[x]
                for s in gens:
                    y = s[x]
                    schreier = tx * s * lvl.orbit[y].inverse()
                    h, j = sift(schreier, i + 1)
                    if not h.is_identity():
                        if j == len(levels):
                            add_level(_first_moved(h))
                        strong.append(h)
                        dirty = j
                        break
                if dirty is not None:
                    break
            if dirty is not None:
                i = dirty
            else:
                i -= 1

        self._levels = levels
        self._strong = strong

    @property
    def base(self) -> list[int]:
        return [l.point for l in self._chain()]

    def order(self) -> int:
        return reduce(lambda a, l: a * len(l.orbit), self._chain(), 1)

    def __contains__(self, g) -> bool:
        if not isinstance(g, Permutation):
            g = Permutation(g)
        if g.degree != self.degree:
            return False
        for lvl in self._chain():
            x = g[lvl.point]
            if x not in lvl.orbit:
                return False
            g = g * lvl.orbit[x].inverse()
        return g.is_identity()

    def stabilizer(self, k: int) -> "PermGroup":
        """Pointwise stabilizer of the first k base points: the strong
        generators fixing them, with levels k, k+1, ... as its chain
        (Seress, Permutation Group Algorithms, 2003, 4.1)."""
        levels = self._chain()
        pts = [l.point for l in levels[:k]]
        sub = PermGroup([g for g in self._strong
                         if all(g[p] == p for p in pts)], self.degree)
        sub._levels = levels[k:]
        sub._strong = sub.generators
        return sub

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a single point, as a new group."""
        return self.pointwise_stabilizer((point,))

    def transversal(self) -> dict[int, Permutation]:
        """Point b -> an element sending the first base point to b."""
        return dict(self._chain()[0].orbit)

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Stabilizer of a set of points, pointwise: one chain's tail."""
        points = tuple(points)
        chain = PermGroup(self.generators, self.degree, base_hint=points)
        return chain.stabilizer(len(points))

    # -- orbits ---------------------------------------------------------------

    def orbit(self, point: int) -> set[int]:
        orb = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for g in self.generators:
                y = g[x]
                if y not in orb:
                    orb.add(y)
                    queue.append(y)
        return orb

    def orbits(self, domain=None) -> list[list[int]]:
        domain = range(self.degree) if domain is None else domain
        seen: set[int] = set()
        out = []
        for x in domain:
            if x in seen:
                continue
            orb = self.orbit(x)
            seen |= orb
            out.append(sorted(orb))
        return out

    def is_transitive(self, domain=None) -> bool:
        domain = list(range(self.degree) if domain is None else domain)
        return set(self.orbit(domain[0])) >= set(domain)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all((a * b).img == (b * a).img
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    # -- element iteration -----------------------------------------------------

    def elements(self, limit: int = 200_000):
        """Iterate t_L ... t_1 t_0 over the sorted transversals, last level
        fastest, one product per element: each level multiplies onto the
        slower levels' products.  ValueError only for element limit + 1."""
        products = iter([Permutation.identity(self.degree)])
        for lvl in self._chain():
            products = _times_transversal(lvl, products)
        for count, g in enumerate(products):
            if count == limit:
                raise ValueError(f"more than {limit} elements requested")
            yield g

    def normalizer(self, sub: "PermGroup", limit: int = 200_000) -> "PermGroup":
        """N_G(sub) by scanning every element: a small-group test oracle."""
        gens = []
        found = PermGroup([], self.degree)
        for g in self.elements(limit):
            if all((g.inverse() * s * g) in sub for s in sub.generators):
                if g not in found:
                    gens.append(g)
                    found = PermGroup(gens, self.degree)
        return found

    def centralizer_of_group(self, other: "PermGroup",
                             limit: int = 200_000) -> "PermGroup":
        """C_G(other) by scanning every element: a small-group test oracle."""
        gens = []
        for g in self.elements(limit):
            if all((g * s).img == (s * g).img for s in other.generators):
                gens.append(g)
        return PermGroup(gens or [], self.degree)


def _times_transversal(level: _Level, products):
    """t * p for each p in products and, within it, each t of the level."""
    transversal = [level.orbit[x] for x in sorted(level.orbit)]
    for p in products:
        for t in transversal:
            yield t * p


def closure_elements(generators, degree: int, limit: int = 200_000) -> set[tuple]:
    """Plain BFS closure of a generating set; the naive cross-check oracle."""
    gens = [g if isinstance(g, Permutation) else Permutation(g)
            for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for img in frontier:
            for g in gens:
                new = tuple(g.img[x] for x in img)
                if new not in seen:
                    if len(seen) >= limit:
                        raise ValueError("closure exceeds limit")
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return seen


def subgroups_of(group: PermGroup, max_group_order: int = 10_000) -> list[PermGroup]:
    """All subgroups, by closure extension; rejects groups above the bound.

    Deterministic order: by (order, sorted element tuples).  Meant for the
    small groups that occur as covering groups and their relatives.
    """
    n = group.order()
    if n > max_group_order:
        raise ValueError(f"group order {n} exceeds bound {max_group_order}")
    elements = sorted(g.img for g in group.elements())
    ident = tuple(range(group.degree))
    known: dict[frozenset, tuple] = {frozenset([ident]): (ident,)}
    frontier = [frozenset([ident])]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in elements:
                if e in sub:
                    continue
                gens = list(known[sub]) + [e]
                closed = frozenset(closure_elements(
                    [Permutation(g) for g in gens], group.degree,
                    limit=max_group_order + 1))
                if closed not in known:
                    known[closed] = tuple(gens)
                    nxt.append(closed)
        frontier = nxt
    out = []
    for sub in sorted(known, key=lambda s: (len(s), sorted(s))):
        gens = [Permutation(g) for g in known[sub]]
        out.append(PermGroup([g for g in gens if not g.is_identity()],
                             group.degree))
    return out
