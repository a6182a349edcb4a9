"""Permutations and small permutation groups with a stabilizer chain.

Each chain is built from the facts already held.  A group whose every
element is listed, such as a subgroups_of output or a covering group, gets
its chain by PermGroup.from_elements, filtering that list: no product is
formed and no Schreier generator sifted.  A strong generating set relative
to a known base gives the chain by PermGroup.from_base, with no Schreier
generator sifted either: the automorphism search's generators are one for
its first-path base.  Bare generators, such as a user's group, get one
deterministic Schreier-Sims chain, its base points prepended from an
optional hint, the others each the first moved point of a sifted element.
A group with a chain goes to another base, or another domain, by
PermGroup.rebased: seeded uniform draws from its own chain are sifted until
the orbit lengths multiply to its order, which certifies the chain, so the
seed changes no result.  Schreier-Sims, rebased and from_base take each
new strong generator by one step, _admit, which grows each level's orbit
by it alone on the old points and by all the level's generators on the
new ones, so every orbit stays closed and none is closed again from the
start.  Orders, membership, stabilizers, transversals, seeded uniform
draws and lazy element iteration all come from the chain, so orders in
the tens of millions are fine at degree <= about 1000 as long as nothing
scans every element.
stabilizer(k), of the first k base points, is a chain tail (Seress 2003,
section 4.1) that records those points as its tail_points, so an element
of the group lies in the tail iff it fixes them; pointwise_stabilizer
and point_stabilizer are tails of the group rebased at the points.
PermGroup.orbits is the one orbit partition, made in one pass over the
points: the automorphism search, the arc orbits, the subdegrees and the
involution scan read it.
Products index one image tuple by another with operator.itemgetter, and a
seeded draw composes image tuples and wraps only its result.  A
permutation holds only its image tuple.  Sifting forms no inverse: it
holds the element it strips inverted and strips each level by one product
on the left.
"""
from __future__ import annotations

import random
from functools import lru_cache, reduce
from math import gcd
from operator import attrgetter, itemgetter

from .numtheory import SizeBoundExceeded

# known-order sifting gives up after this many identity residues in a row
MAX_IDLE_DRAWS = 64
CHAIN_SEED = 1  # of rebased's draws; the order certifies the chain anyway
MAX_SUBGROUPS_ORDER = 10_000  # subgroups_of refuses larger groups


class Permutation:
    """A permutation of 0..n-1 stored as an image tuple.

    Composition is left-to-right: (p * q)[x] = q[p[x]], matching the
    exponent convention x^(pq) = (x^p)^q.
    """

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(_identity_img(n))

    @property
    def degree(self) -> int:
        return len(self.img)

    def __getitem__(self, x: int) -> int:
        return self.img[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        img = self.img
        if len(img) < 2:  # itemgetter of one index gives a scalar, of none raises
            return Permutation(other.img)
        return Permutation(itemgetter(*img)(other.img))

    def inverse(self) -> "Permutation":
        """The inverse, computed on each call and not kept."""
        inv = [0] * len(self.img)
        for i, x in enumerate(self.img):
            inv[x] = i
        return Permutation(inv)

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
        """The cycles of length > 1, each from its least point.  ValueError
        when the image is no permutation of 0..n-1: a cycle reaches a point
        outside 0..n-1, or one already seen, which has two preimages."""
        n = len(self.img)
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or self.img[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.img[i]
            while j != i:
                if not 0 <= j < n:
                    raise ValueError(f"image {j} lies outside 0..{n - 1}")
                if seen[j]:
                    raise ValueError(f"point {j} is the image of two points")
                cyc.append(j)
                seen[j] = True
                j = self.img[j]
            out.append(tuple(cyc))
        return out

    def fixed_points(self) -> list[int]:
        return [i for i, x in enumerate(self.img) if i == x]

    def __repr__(self):
        try:
            cyc = self.cycles()
        except ValueError:  # no permutation: show the raw image
            return f"Permutation({list(self.img)})"
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
    recording each new point's transversal element t_y = t_x s."""
    gens = [(s, s.img) for s in gens]
    while queue:
        x = queue.pop()
        tx = orbit[x]
        for s, img in gens:
            y = img[x]
            if y not in orbit:
                orbit[y] = tx * s
                queue.append(y)


def _sift(levels, w: Permutation, start: int = 0):
    """Strip g = w^-1 through levels start, start + 1, ..., held as w:
    at base point b, y = g[b] is the point w sends to b, and g = u t_y
    with u fixing b gives u^-1 = t_y w, one product on the left.  Returns
    (w for the residue, index of the level whose orbit misses it, or
    len(levels)); g is in the group iff w is, so callers sift their own
    elements as w."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        t = lvl.orbit.get(w.img.index(lvl.point))
        if t is None:
            return w, i
        w = t * w
    return w, len(levels)


def _admit(levels, strong, w: Permutation, start: int = 0) -> int | None:
    """Sift w from level start (see _sift).  A non-identity residue h,
    which fixes the base points before its level j, joins strong, a new
    level at its first moved point when j is past the last level, and the
    orbits of levels 0..j grow by h: each level applies h to its old
    points, then all its generators, those strong generators fixing the
    earlier base points, to the points that brings in.  Old points under
    the old generators stay in the orbit, so every level's orbit stays
    closed under its generators.  Returns j, or None when w sifts to the
    identity."""
    h, j = _sift(levels, w, start)
    if h.is_identity():
        return None
    if j == len(levels):
        levels.append(_Level(_first_moved(h), h.degree))
    strong.append(h)
    gens, img = strong, h.img
    for lvl in levels[:j + 1]:
        orbit, new = lvl.orbit, []
        for x, tx in list(orbit.items()):
            if img[x] not in orbit:
                orbit[img[x]] = tx * h
                new.append(img[x])
        if new:
            _close_orbit(orbit, gens, new)
        gens = [s for s in gens if s[lvl.point] == lvl.point]
    return j


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
        # the base points whose pointwise stabilizer in its root group this
        # group is, when stabilizer made it as a chain tail
        self.tail_points: tuple[int, ...] = ()

    # -- stabilizer chain ----------------------------------------------------

    def _chain(self):
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self):
        """Deterministic Schreier-Sims, for a group given by bare
        generators: each generator is admitted (_admit) after the hinted
        levels, then each scan of a level, its orbit kept closed, sifts
        the Schreier generators t_x s t_y^-1, y = x^s, with the level's
        transversal inverted once for the scan."""
        levels, strong = [_Level(b, self.degree) for b in self._base_hint], []
        for g in self.generators:
            _admit(levels, strong, g)
        i = len(levels) - 1
        while i >= 0:
            orbit, gens = levels[i].orbit, _fixing(strong, levels[:i])
            inv = {y: t.inverse() for y, t in orbit.items()}
            schreier = (tx * s * inv[s[x]]
                        for x, tx in sorted(orbit.items()) for s in gens)
            for w in schreier:
                j = _admit(levels, strong, w, i + 1)
                if j is not None:
                    i = j
                    break
            else:
                i -= 1
        self._levels = levels
        self._strong = strong

    def rebased(self, base, act=None) -> "PermGroup":
        """This group, or its image under act, an injective homomorphism to
        permutations such as an action on a larger domain, with a chain
        whose base starts with base.  Known-order sifting (Seress,
        Permutation Group Algorithms, 2003, ch. 4) of the draws
        random_elements(CHAIN_SEED), mapped by act and sifted as drawn
        (_sift strips each draw's inverse, as uniform as the draw): each
        non-identity residue joins the strong generators and the orbits
        grow, until the orbit lengths multiply to self.order().  That
        product never passes the order and reaches it only on a complete
        chain, so the order certifies the chain; a draw sifts to a new
        element with probability at least 1/2 while the chain is
        incomplete.  ValueError when the
        product passes the order or MAX_IDLE_DRAWS draws in a row sift to
        the identity first: act was not injective, or the order was wrong.
        """
        act = act or (lambda p: p)
        order, draws = self.order(), map(act, self.random_elements(CHAIN_SEED))
        degree = act(Permutation.identity(self.degree)).degree
        group = PermGroup([act(g) for g in self.generators], degree, base)
        levels, strong = [_Level(b, degree) for b in base], []
        for g in group.generators:
            _admit(levels, strong, g)
        idle = 0
        while (found := _orbit_product(levels)) < order:
            if _admit(levels, strong, next(draws)) is not None:
                idle = 0
                continue
            idle += 1
            if idle == MAX_IDLE_DRAWS:
                raise ValueError(
                    f"{idle} draws in a row sifted to the identity with "
                    f"orbit product {found} below the order {order}")
        if found > order:
            raise ValueError(f"orbit product {found} passes the order {order}")
        group._levels, group._strong = levels, strong
        return group

    @classmethod
    def from_base(cls, generators, degree: int, base) -> "PermGroup":
        """The group generated by generators, which must be a strong
        generating set relative to base: those fixing base[:i] generate the
        pointwise stabilizer of base[:i], for every i.  Each generator is
        admitted (_admit) on the levels of base, and no Schreier generator
        is sifted: a generator fixing base[:i] leaves a residue that fixes
        them too, so the residues fixing base[:i] generate what those
        generators do, and each level's orbit, closed under them, is its
        whole basic orbit.  A base point they all fix gets no level.  Only
        the last step is checked: ValueError when a residue passes the
        base, a non-identity element fixing all of it.  Nothing else checks
        the strong generation, so the caller vouches for it, as the
        automorphism search does for its first-path base (McKay 1981)."""
        group = cls(generators, degree)
        levels, strong = [_Level(b, degree) for b in base], []
        for g in group.generators:
            if _admit(levels, strong, g) == len(base):
                raise ValueError("a residue fixes the whole base")
        group._levels = [l for l in levels if len(l.orbit) > 1]
        group._strong = strong
        return group

    @classmethod
    def from_elements(cls, generators, elements, degree: int) -> "PermGroup":
        """The group generated by generators, whose elements are every one
        listed in elements, the identity optional.  The chain is read off
        the list with no product formed: b_i is the first moved point of
        the first listed element fixing b_0..b_{i-1}, and level i's
        transversal holds, for each point, the first listed element that
        fixes b_0..b_{i-1} and sends b_i there.  The transversal elements
        are the strong generators.  Nothing checks that the list is the
        whole group, so the caller vouches for it, as subgroups_of does for
        each closure and covering_group for K."""
        group = cls(generators, degree)
        rest = [g for g in elements if not g.is_identity()]
        levels: list[_Level] = []
        while rest:
            b = _first_moved(rest[0])
            lvl = _Level(b, degree)
            for g in rest:
                lvl.orbit.setdefault(g[b], g)
            levels.append(lvl)
            rest = [g for g in rest if g[b] == b]
        group._levels = levels
        group._strong = [t for l in levels for x, t in l.orbit.items()
                         if x != l.point]
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
        try:
            return _sift(self._chain(), g)[0].is_identity()
        except ValueError:  # a base point has no preimage: no permutation
            return False

    def stabilizer(self, k: int) -> "PermGroup":
        """Pointwise stabilizer of the first k base points: the strong
        generators fixing them, with levels k, k+1, ... as its chain
        (Seress, Permutation Group Algorithms, 2003, 4.1).  Its
        tail_points are this group's followed by those k points: an
        element of the root group lies in the tail iff it fixes them."""
        levels = self._chain()
        sub = PermGroup(_fixing(self._strong, levels[:k]), self.degree)
        sub._levels = levels[k:]
        sub._strong = sub.generators
        sub.tail_points = self.tail_points + tuple(l.point for l in levels[:k])
        return sub

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a single point, as a new group."""
        return self.pointwise_stabilizer((point,))

    def transversal(self) -> dict[int, Permutation]:
        """Point b -> an element sending the first base point to b."""
        return dict(self._chain()[0].orbit)

    def transversals(self) -> list[dict[int, Permutation]]:
        """Each level's transversal, as transversal() gives level 0's; the
        base point itself comes first, with the identity."""
        return [dict(l.orbit) for l in self._chain()]

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Stabilizer of a set of points, pointwise: a tail of rebased."""
        points = tuple(points)
        return self.rebased(points).stabilizer(len(points))

    def random_elements(self, seed: int):
        """Endless seeded uniform draws: t_L ... t_1 t_0 with each t_i a
        random transversal element of level i, as elements() multiplies
        them, so every element is one product.  The image tuples are
        composed level by level and wrapped in one Permutation per draw."""
        rng = random.Random(seed)
        # below two points the identity is the only element, and itemgetter
        # of one index would give a scalar
        levels = self._chain() if self.degree > 1 else []
        transversals = [[t.img for t in l.orbit.values()] for l in levels]
        ident = _identity_img(self.degree)
        while True:
            img = ident
            for ts in transversals:
                img = itemgetter(*rng.choice(ts))(img)
            yield Permutation(img)

    # -- orbits ---------------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        """The orbits on 0..degree-1, each sorted, in order of least point:
        one pass over the points, each unseen one starting an orbit list
        that grows while it is read, with a bytearray of seen points."""
        imgs = [g.img for g in self.generators]
        seen = bytearray(self.degree)
        out = []
        for x in range(self.degree):
            if seen[x]:
                continue
            seen[x] = 1
            orb = [x]
            for y in orb:
                for img in imgs:
                    z = img[y]
                    if not seen[z]:
                        seen[z] = 1
                        orb.append(z)
            orb.sort()
            out.append(orb)
        return out

    # -- element iteration -----------------------------------------------------

    def elements(self, limit: int = 200_000):
        """Iterate t_L ... t_1 t_0 over the sorted transversals, last level
        fastest, one product per element: each level multiplies onto the
        slower levels' products.  SizeBoundExceeded (a ValueError) only
        for element limit + 1."""
        products = iter([Permutation.identity(self.degree)])
        for lvl in self._chain():
            products = _times_transversal(lvl, products)
        for count, g in enumerate(products):
            if count == limit:
                raise SizeBoundExceeded(
                    f"more than {limit} elements requested")
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


def subgroups_of(group: PermGroup) -> list[PermGroup]:
    """All subgroups, by closure extension; SizeBoundExceeded (a ValueError)
    for a group of order above MAX_SUBGROUPS_ORDER.

    The elements are numbered in sorted order and every closure runs on
    frozensets of these indices.  The product of two indices is composed
    the first time it is needed and remembered, so at most |G|^2 tuple
    compositions are made, whatever the number of closures.  Each subgroup
    keeps the generators that first produced it, and its chain is read
    off its element list (PermGroup.from_elements), so no order or
    membership test on it runs Schreier-Sims.  Deterministic order: by
    (order, sorted element tuples), which the order-preserving numbering
    turns into (order, sorted indices).  Meant for the small groups that
    occur as covering groups and their relatives.
    """
    n = group.order()
    if n > MAX_SUBGROUPS_ORDER:
        raise SizeBoundExceeded(
            f"group order {n} exceeds bound {MAX_SUBGROUPS_ORDER}")
    perms = sorted(group.elements(), key=attrgetter("img"))
    elements = [p.img for p in perms]
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
    listed = sorted((len(sub), sorted(sub), known[sub]) for sub in known)
    return [PermGroup.from_elements([perms[x] for x in gens],
                                    [perms[x] for x in members], group.degree)
            for _, members, gens in listed]
