"""Permutations and small permutation groups with a stabilizer chain.

A group of unknown order gets its chain from a deterministic Schreier-Sims
procedure: base points are prepended from an optional hint (enabling
pointwise set stabilizers, e.g. the kernel of an action), otherwise chosen
as the first moved point.  A group whose order is already known, such as
the same group on another base or on an extended domain, is built by
PermGroup.from_order: seeded uniform draws are sifted until the product of
the orbit lengths equals the order, which certifies the chain, so the
seed changes no result.  Generators that are already a strong generating
set relative to a known base, such as the automorphism search's relative to
its first-path base, give the chain by PermGroup.from_base: each level's
orbit is closed under the generators fixing the earlier base points, and no
Schreier generator is sifted.  Orders, membership, stabilizers,
transversals, seeded uniform draws and lazy element iteration all come from
the chain, so orders in the tens of millions are fine at degree <= about
1000 as long as nothing scans every element.  PermGroup.stabilizer(k), of
the first k base points, is a chain tail and runs no Schreier-Sims (Seress
2003, section 4.1); point_stabilizer and pointwise_stabilizer build a new
chain by Schreier-Sims with the points as base hint and take its tail.
PermGroup.orbits is the one orbit partition: the automorphism search, the
arc orbits, the covering group's regularity, quotients and subdegrees all
read it.  Products index one image tuple by another with
operator.itemgetter, and each permutation keeps its inverse once computed.
"""
from __future__ import annotations

import random
from functools import lru_cache, reduce
from math import gcd
from operator import itemgetter

# known-order sifting gives up after this many identity residues in a row
MAX_IDLE_DRAWS = 64


class Permutation:
    """A permutation of 0..n-1 stored as an image tuple.

    Composition is left-to-right: (p * q)(x) = q(p(x)), matching the
    exponent convention x^(pq) = (x^p)^q.
    """

    __slots__ = ("img", "_inv")

    def __init__(self, img):
        self.img = tuple(img)
        self._inv: Permutation | None = None

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(_identity_img(n))

    @property
    def degree(self) -> int:
        return len(self.img)

    def __getitem__(self, x: int) -> int:
        return self.img[x]

    def __call__(self, x: int) -> int:
        return self.img[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        img = self.img
        if len(img) < 2:  # itemgetter of one index gives a scalar, of none raises
            return Permutation(other.img)
        return Permutation(itemgetter(*img)(other.img))

    def inverse(self) -> "Permutation":
        """The inverse, computed once: each of the pair holds the other."""
        if self._inv is None:
            inv = [0] * len(self.img)
            for i, x in enumerate(self.img):
                inv[x] = i
            self._inv = Permutation(inv)
            self._inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        return self.img == _identity_img(len(self.img))

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


@lru_cache(maxsize=64)
def _identity_img(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _first_moved(g: Permutation) -> int:
    for i, x in enumerate(g.img):
        if i != x:
            return i
    raise ValueError("identity has no moved point")


class _Level:
    # Stabilizer tails share levels: none is mutated once its chain is built.
    __slots__ = ("point", "orbit")

    def __init__(self, point: int, degree: int):
        self.point = point
        # base point -> transversal element sending it there
        self.orbit = {point: Permutation.identity(degree)}


def _fixing(strong, levels) -> list[Permutation]:
    """The strong generators fixing the base points of levels."""
    pts = [l.point for l in levels]
    return [g for g in strong if all(g[p] == p for p in pts)]


def _close_orbit(orbit: dict, gens, queue: list) -> None:
    """Apply gens to the points in queue and to every point they reach,
    recording each new point's transversal element."""
    while queue:
        x = queue.pop()
        tx = orbit[x]
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit[y] = tx * s
                queue.append(y)


def _sift(levels, g: Permutation, start: int = 0):
    """Strip g through levels start, start + 1, ...: (residue, index of
    the level whose orbit misses it, or len(levels))."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        t = lvl.orbit.get(g[lvl.point])
        if t is None:
            return g, i
        g = g * t.inverse()
    return g, len(levels)


def _orbit_product(levels) -> int:
    return reduce(lambda a, l: a * len(l.orbit), levels, 1)


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

    def _start_chain(self) -> tuple[list[_Level], list[Permutation]]:
        """Levels for the hinted base points, then one for the first moved
        point of each generator that fixes every base point so far; each
        orbit is just its base point.  Returns (levels, strong generators)."""
        levels: list[_Level] = []
        strong: list[Permutation] = list(self.generators)
        for b in self._base_hint:
            levels.append(_Level(b, self.degree))
        for g in strong:
            if all(g[l.point] == l.point for l in levels):
                levels.append(_Level(_first_moved(g), self.degree))
        return levels, strong

    def _build_chain(self):
        """Deterministic Schreier-Sims, for a group of unknown order."""
        levels, strong = self._start_chain()
        i = len(levels) - 1
        while i >= 0:
            lvl = levels[i]
            gens = _fixing(strong, levels[:i])
            lvl.orbit = {lvl.point: lvl.orbit[lvl.point]}
            _close_orbit(lvl.orbit, gens, [lvl.point])
            dirty = None
            for x in sorted(lvl.orbit):
                tx = lvl.orbit[x]
                for s in gens:
                    y = s[x]
                    schreier = tx * s * lvl.orbit[y].inverse()
                    h, j = _sift(levels, schreier, i + 1)
                    if not h.is_identity():
                        if j == len(levels):
                            levels.append(_Level(_first_moved(h), self.degree))
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

    @classmethod
    def from_order(cls, generators, degree: int, order: int, draws,
                   base_hint=()) -> "PermGroup":
        """The group generated by generators, whose order is known, with a
        chain built by known-order sifting (Seress, Permutation Group
        Algorithms, 2003, ch. 4): sift elements of the group taken from the
        iterator draws, add each non-identity residue as a strong generator
        and grow the orbits, until the product of the orbit lengths equals
        order.  That product never exceeds the group's order and reaches it
        only on a complete chain, so the order certifies the chain for any
        draws from the group; uniform draws make each sift succeed with
        probability at least 1/2 while the chain is incomplete.  ValueError
        when the product passes order or MAX_IDLE_DRAWS draws in a row sift
        to the identity first: order was not the group's order, or the
        draws were not uniform in it.
        """
        group = cls(generators, degree, base_hint)
        levels, strong = group._start_chain()

        def grow(top: int):
            """Close the orbits of levels 0..top under their generators."""
            for i in range(top + 1):
                orbit = levels[i].orbit
                _close_orbit(orbit, _fixing(strong, levels[:i]), list(orbit))

        grow(len(levels) - 1)
        idle = 0
        while (found := _orbit_product(levels)) < order:
            h, j = _sift(levels, next(draws))
            if h.is_identity():
                idle += 1
                if idle == MAX_IDLE_DRAWS:
                    raise ValueError(
                        f"{idle} draws in a row sifted to the identity with "
                        f"orbit product {found} below the order {order}")
                continue
            idle = 0
            if j == len(levels):
                levels.append(_Level(_first_moved(h), degree))
            strong.append(h)
            grow(j)  # h fixes the base points before level j
        if found > order:
            raise ValueError(f"orbit product {found} passes the order {order}")
        group._levels, group._strong = levels, strong
        return group

    @classmethod
    def from_base(cls, generators, degree: int, base) -> "PermGroup":
        """The group generated by generators, which must be a strong
        generating set relative to base: those fixing base[:i] generate the
        pointwise stabilizer of base[:i], for every i.  Level i's orbit is
        closed under them alone and no Schreier generator is sifted; a base
        point they all fix gets no level.  Only the last step is checked:
        ValueError when a generator fixes the whole base and is not the
        identity.  Nothing else checks the strong generation, so the caller
        vouches for it, as the automorphism search does for its first-path
        base (McKay 1981)."""
        group = cls(generators, degree)
        gens = group.generators
        levels: list[_Level] = []
        for b in base:
            lvl = _Level(b, degree)
            _close_orbit(lvl.orbit, gens, [b])
            if len(lvl.orbit) > 1:
                levels.append(lvl)
                gens = [g for g in gens if g[b] == b]
        if gens:
            raise ValueError("a generator fixes the whole base")
        group._levels, group._strong = levels, group.generators
        return group

    @property
    def base(self) -> list[int]:
        return [l.point for l in self._chain()]

    def order(self) -> int:
        return _orbit_product(self._chain())

    def __contains__(self, g) -> bool:
        if not isinstance(g, Permutation):
            g = Permutation(g)
        if g.degree != self.degree:
            return False
        return _sift(self._chain(), g)[0].is_identity()

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

    def random_elements(self, seed: int):
        """Endless seeded uniform draws: t_L ... t_1 t_0 with each t_i a
        random transversal element of level i, as elements() multiplies
        them, so every element is one product."""
        rng = random.Random(seed)
        transversals = [list(l.orbit.values()) for l in self._chain()]
        ident = Permutation.identity(self.degree)
        while True:
            g = ident
            for ts in transversals:
                g = rng.choice(ts) * g
            yield g

    # -- orbits ---------------------------------------------------------------

    def orbit(self, point: int) -> set[int]:
        imgs = [g.img for g in self.generators]
        orb = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for img in imgs:
                y = img[x]
                if y not in orb:
                    orb.add(y)
                    queue.append(y)
        return orb

    def orbits(self) -> list[list[int]]:
        """The orbits on 0..degree-1, each sorted, in order of least point."""
        seen: set[int] = set()
        out = []
        for x in range(self.degree):
            if x in seen:
                continue
            orb = self.orbit(x)
            seen |= orb
            out.append(sorted(orb))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

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
    """Plain BFS closure of a generating set, one tuple composition per
    product.  No library code calls it: it is the naive cross-check oracle
    that tests compare chains and subgroups_of with."""
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

    The elements are numbered in sorted order and every closure runs on
    frozensets of these indices.  The product of two indices is composed
    the first time it is needed and remembered, so at most |G|^2 tuple
    compositions are made, whatever the number of closures.  Each subgroup
    keeps the generators that first produced it.  Deterministic order: by
    (order, sorted element tuples), which the order-preserving numbering
    turns into (order, sorted indices).  Meant for the small groups that
    occur as covering groups and their relatives.
    """
    n = group.order()
    if n > max_group_order:
        raise ValueError(f"group order {n} exceeds bound {max_group_order}")
    elements = sorted(g.img for g in group.elements())
    index = {img: i for i, img in enumerate(elements)}
    # the identity is the least image tuple, so index 0, and its products
    # need no composition; the others are composed on first use
    products = {(0, y): y for y in range(n)}

    def times(x: int, y: int) -> int:
        xy = products.get((x, y))
        if xy is None:
            xy = products[x, y] = index[itemgetter(*elements[x])(elements[y])]
        return xy

    def closure(gens) -> frozenset:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in gens:
                    xy = times(x, y)
                    if xy not in seen:
                        seen.add(xy)
                        nxt.append(xy)
            frontier = nxt
        return frozenset(seen)

    trivial = frozenset([0])
    known: dict[frozenset, tuple] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in range(1, n):
                if e in sub:
                    continue
                gens = known[sub] + (e,)
                closed = closure(gens)
                if closed not in known:
                    known[closed] = gens
                    nxt.append(closed)
        frontier = nxt
    return [PermGroup([elements[x] for x in known[sub]], group.degree)
            for sub in sorted(known, key=lambda s: (len(s), sorted(s)))]
