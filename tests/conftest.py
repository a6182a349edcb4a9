"""Shared fixtures: the small-cover corpus, explicit witness permutations,
and the naive oracles the suites compare the library with."""
import random
import sys
from itertools import combinations, product
from typing import NamedTuple

import numpy as np
import pytest

from coverlab import (cube, hexagon, icosahedron, seidel_of_graph,
                      taylor_from_seidel, thas_somma)
from coverlab.graphcore import verify_cover
from coverlab.numtheory import _p_power, is_prime
from coverlab.perms import PermGroup, Permutation


@pytest.fixture(scope="session")
def corpus():
    """The named covers every suite exercises, keyed by name."""
    return {
        "hexagon": hexagon(),
        "cube": cube(),
        "icosahedron": icosahedron(),
        "ts31": thas_somma(3, 1),
        "ts41": thas_somma(4, 1),
    }


def symplectic_witnesses(q: int):
    """Explicit automorphisms of the q=prime, m=1 cover: translations
    t_w : (u, a) -> (u + w, a + B(w, u)), covering shifts z_c, and linear
    lifts (u, a) -> (A u, det(A) a) for A over GF(q).  Prime q only."""
    pts = list(product(range(q), repeat=2))
    idx = {u: i for i, u in enumerate(pts)}

    def form(u, v):
        return (u[0] * v[1] - u[1] * v[0]) % q

    def translation(w):
        img = [0] * (q * q * q)
        for i, u in enumerate(pts):
            nu = ((u[0] + w[0]) % q, (u[1] + w[1]) % q)
            for a in range(q):
                img[i * q + a] = idx[nu] * q + (a + form(w, u)) % q
        return Permutation(img)

    def shift(c):
        img = [0] * (q * q * q)
        for i in range(q * q):
            for a in range(q):
                img[i * q + a] = i * q + (a + c) % q
        return Permutation(img)

    def linear(mat):
        det = (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % q
        img = [0] * (q * q * q)
        for i, u in enumerate(pts):
            nu = ((mat[0][0] * u[0] + mat[0][1] * u[1]) % q,
                  (mat[1][0] * u[0] + mat[1][1] * u[1]) % q)
            for a in range(q):
                img[i * q + a] = idx[nu] * q + (det * a) % q
        return Permutation(img)

    return translation, shift, linear


def rank3_subgroup_ts31():
    """The order-108 subgroup of Aut(TS(3,1)) of rank 3 on the fibres."""
    translation, shift, linear = symplectic_witnesses(3)
    return PermGroup([translation((1, 0)), translation((0, 1)), shift(1),
                      linear([[0, -1], [1, 0]])])


def signature_of(s):
    """The signature matrix S = exp(2 pi i angle/e) of a CharacterMatrix,
    rebuilt in complex floats from its exact angle table and e (0 where the
    angle is -1): the float oracle for its spectrum and its lines."""
    roots = np.exp(2j * np.pi * np.arange(s.e) / s.e)
    return np.where(s.angle >= 0, roots[s.angle % s.e], 0)


def gram_of(lines):
    """G = I - S/other of a line system, rebuilt in complex floats from its
    exact signature and other: the float oracle for its certificates."""
    return np.eye(lines.n) - signature_of(lines.signature) / float(lines.other)


def gosset_cover(convention: int):
    """Taylor extension of the Schlaefli graph: the double cover of K_28
    from the Seidel matrix of T(8), the line graph of K_8, whose switching
    class holds the Schlaefli graph plus an isolated vertex."""
    pairs = list(combinations(range(8), 2))
    adj = [[int(len(set(x) & set(y)) == 1) for y in pairs] for x in pairs]
    return taylor_from_seidel(seidel_of_graph(adj), convention=convention)


def closure_elements(generators, degree: int, limit: int = 200_000) -> set[tuple]:
    """Plain BFS closure of a generating set, one tuple composition per
    product: the naive cross-check oracle for the chains and subgroups_of."""
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


class PPartDecomposition(NamedTuple):
    l: int
    p: int
    p_part: int
    p_prime_part: int


def p_part(l: int, p: int) -> PPartDecomposition:
    """Largest power of p dividing l, plus the cofactor."""
    if l < 1:
        raise ValueError("l must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    part = _p_power(l, p)
    return PPartDecomposition(l=l, p=p, p_part=part, p_prime_part=l // part)


def relabelled(g, seed: int):
    """g under a vertex permutation drawn from the seed."""
    perm = list(range(g.v))
    random.Random(seed).shuffle(perm)
    return g.relabelled(perm)


def bfs_layers(a, start: int) -> list[list[int]]:
    """BFS layers from start in the graph with 0/1 adjacency matrix a, each
    sorted, to the last layer reached: the distance oracle for what the
    library derives without a traversal, and for reachable_count."""
    nbrs = [np.flatnonzero(row).tolist() for row in a]
    seen = {start}
    layers = [[start]]
    while True:
        layer = sorted({w for u in layers[-1] for w in nbrs[u]} - seen)
        if not layer:
            return layers
        seen.update(layer)
        layers.append(layer)


def matching_swapped(g, fibres=None):
    """g with two edges of one fibre-pair matching exchanged.

    A fixed seed picks the two fibres and the two vertices; given fibres
    (i, j), the swap is between the first two vertices of fibre i and
    their neighbours in fibre j.  Fibres stay cocliques and every fibre
    pair still induces a perfect matching, so only the mu, lambda or
    connectivity axioms can notice.
    """
    rng = random.Random(0)
    if fibres is None:
        i, j = rng.sample(range(g.n), 2)
        u, u2 = rng.sample(g.fibres[i], 2)
    else:
        i, j = fibres
        u, u2 = g.fibres[i][:2]
    w, w2 = (next(x for x in g.fibres[j] if g.has_edge(y, x)) for y in (u, u2))
    return g.toggled(u, w).toggled(u2, w2).toggled(u, w2).toggled(u2, w)


@pytest.fixture
def verify_calls(monkeypatch):
    """Graphs passed to verify_cover, seen through every module binding it."""
    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g)
        return verify_cover(g, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("coverlab")
                and getattr(mod, "verify_cover", None) is verify_cover):
            monkeypatch.setattr(mod, "verify_cover", counting)
    return calls
