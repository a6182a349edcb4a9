"""Constructors validated through verify_cover (the trust anchor)."""
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from coverlab import (PermGroup, all_characters, character_matrix,
                      cover_from_voltages, covering_group, covers_isomorphic,
                      cube, hexagon, icosahedron, quotient_cover,
                      seidel_of_graph, taylor_from_seidel, thas_somma,
                      verify_cover)
from coverlab.cli import main
from coverlab.constructions import VERTEX_BOUND
from coverlab.gf import GF
from coverlab.graphcore import SizeBoundExceeded
from coverlab.numtheory import prime_power_decompose


def test_hexagon():
    g = hexagon()
    assert g.v == 6 and len(g.edges) == 6
    rep = verify_cover(g)
    assert (rep.n, rep.r, rep.mu) == (3, 2, 1)
    assert g.fibres == ((0, 3), (1, 4), (2, 5))
    evals = sorted(np.linalg.eigvalsh(g.adjacency_matrix().astype(float)))
    assert np.allclose(evals, [-2, -1, -1, 1, 1, 2])


def test_icosahedron():
    g = icosahedron()
    assert g.v == 12 and len(g.edges) == 30
    rep = verify_cover(g)
    assert (rep.n, rep.r, rep.mu) == (6, 2, 2)
    evals = sorted(np.linalg.eigvalsh(g.adjacency_matrix().astype(float)))
    r5 = 5 ** 0.5
    assert np.allclose(evals, [-r5] * 3 + [-1] * 5 + [r5] * 3 + [5])


def test_gf_arithmetic():
    """The field axioms on the tables thas_somma indexes, over all of GF(q)."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        fld = GF(q)
        add, neg, mul = fld.add_table, fld.neg_table, fld.mul_table
        els = np.arange(q)
        for t in (add, mul):
            assert t.shape == (q, q) and (t == t.T).all()
            # associativity: t[t[a, b], c] == t[a, t[b, c]]
            assert (t[t[:, :, None], els] == t[els[:, None, None], t]).all()
        assert (add[:, 0] == els).all() and (mul[:, 1] == els).all()
        assert (add[els, neg] == 0).all()
        # distributivity: a(b + c) == ab + ac
        assert (mul[els[:, None, None], add] ==
                add[mul[:, :, None], mul[:, None, :]]).all()
        # each nonzero a permutes the nonzero elements: a has an inverse
        assert (mul[0] == 0).all()
        assert all(sorted(row) == list(range(1, q)) for row in mul[1:, 1:])
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(32)
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(12) is None


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1),
                                 (8, 1), (2, 2), (3, 2)])
def test_thas_somma_family(q, m):
    g = thas_somma(q, m)
    rep = verify_cover(g)
    assert rep.is_cover
    assert (rep.n, rep.r, rep.mu) == (q ** (2 * m), q, q ** (2 * m - 1))


def test_thas_somma_covering_group_abelian_regular():
    for q in (2, 3, 4, 5):
        g = thas_somma(q, 1)
        kernel, info = covering_group(g)
        assert info["order"] == q and info["abelian_cover"]


def test_gf_checks_its_bound_before_factoring(monkeypatch):
    """q > 16 is rejected before q is factored, whose cost grows as sqrt(q)."""
    import coverlab.gf
    calls = []

    def spy(q):
        calls.append(q)
        return prime_power_decompose(q)

    monkeypatch.setattr(coverlab.gf, "prime_power_decompose", spy)
    for q in (17, 999_999_999_989, 99_999_999_999_973):
        with pytest.raises(ValueError, match="bound 16"):
            GF(q)
    assert calls == []
    GF(9)
    assert calls == [9]


@pytest.mark.parametrize("seidel", (5, "abc", None, [0, 1],
                                    [["0", "1"], ["1", "0"]]))
def test_taylor_from_seidel_needs_a_numeric_matrix(seidel):
    with pytest.raises(ValueError, match="2-d array of numbers"):
        taylor_from_seidel(seidel)


def test_thas_somma_bounds():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        thas_somma(6, 1)
    # the vertex bound comes before GF(q)'s own bound of 16: 17^3 = 4913
    # and 32^3 vertices
    assert thas_somma(16, 1).v == 4096
    for q, m in ((17, 1), (32, 1), (2, 6), (3, 4), (3, 10 ** 5)):
        with pytest.raises(SizeBoundExceeded, match="exceed the bound 4096"):
            thas_somma(q, m)
    # below q = 2 no power exceeds the bound; GF refuses q
    for q in (1, 0):
        with pytest.raises(ValueError, match="not a prime power"):
            thas_somma(q, 10 ** 5)


def test_taylor_from_seidel_bound():
    n = VERTEX_BOUND // 2 + 1
    s = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    with pytest.raises(SizeBoundExceeded, match=f"{2 * n} vertices exceed"):
        taylor_from_seidel(s)


def test_ts2_is_cube():
    assert covers_isomorphic(thas_somma(2, 1), cube())


def test_taylor_triangle_is_hexagon():
    s = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
    g = taylor_from_seidel(s)
    assert verify_cover(g).is_cover
    assert covers_isomorphic(g, hexagon())


def test_taylor_paley6_is_icosahedron():
    pent = np.zeros((6, 6), dtype=int)
    for i in range(5):
        a, b = 1 + i, 1 + (i + 1) % 5
        pent[a, b] = pent[b, a] = 1
    g = taylor_from_seidel(seidel_of_graph(pent))
    rep = verify_cover(g)
    assert (rep.n, rep.r, rep.mu) == (6, 2, 2)
    assert covers_isomorphic(g, icosahedron())


def test_taylor_nonregular_two_graph_fails():
    # single edge on 4 points: the two-graph is not regular, so mu varies
    one_edge = np.zeros((4, 4), dtype=int)
    one_edge[0, 1] = one_edge[1, 0] = 1
    g = taylor_from_seidel(seidel_of_graph(one_edge))
    rep = verify_cover(g)
    assert not rep.is_cover
    assert any(f.axiom == "mu-constant" for f in rep.failures)


def test_taylor_all_plus_one_is_crown():
    # spec expected failure here, but under the fixed convention the all-+1
    # Seidel matrix gives K_{n,n} minus a matching: a valid (n,2,n-2)-cover
    for n in (3, 4, 5):
        s = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        rep = verify_cover(taylor_from_seidel(s))
        assert rep.is_cover and rep.mu == n - 2


def test_taylor_conventions_complementary():
    pent = np.zeros((6, 6), dtype=int)
    for i in range(5):
        a, b = 1 + i, 1 + (i + 1) % 5
        pent[a, b] = pent[b, a] = 1
    s = seidel_of_graph(pent)
    g_minus = taylor_from_seidel(s, convention=-1)
    g_plus = taylor_from_seidel(s, convention=+1)
    # complementary switching cover: mu values 2 and n-2-mu alternate
    assert verify_cover(g_minus).mu == 2
    assert verify_cover(g_plus).mu == 2  # 6-2-2 = 2: self-complementary size
    assert g_minus.edges != g_plus.edges


def test_taylor_rejects_malformed():
    with pytest.raises(ValueError):
        taylor_from_seidel(np.zeros((3, 3), dtype=int))  # zeros off-diagonal
    bad = np.ones((3, 3), dtype=int)
    with pytest.raises(ValueError):
        taylor_from_seidel(bad)  # nonzero diagonal
    with pytest.raises(ValueError):
        taylor_from_seidel([[0, 1, 1], [-1, 0, 1], [1, 1, 0]])  # asymmetric


def j_minus_i(n):
    return np.ones((n, n), dtype=int) - np.eye(n, dtype=int)


# the pentagon plus an isolated vertex, whose switching class is the regular
# two-graph on 6 points
PENTAGON = seidel_of_graph([[int(i < 5 and j < 5 and (i - j) % 5 in (1, 4))
                             for j in range(6)] for i in range(6)])
# T(8), the line graph of K_8, whose switching class holds the Schlaefli
# graph plus an isolated vertex: its Taylor covers are the Gosset covers
T8 = seidel_of_graph([[int(len(set(x) & set(y)) == 1)
                       for y in combinations(range(8), 2)]
                      for x in combinations(range(8), 2)])


def test_seidel_round_trip():
    """Seidel matrices written out here give the three small covers: J - I
    on 3 and on 4 points the hexagon and the cube, and the regular two-graph
    on 6 points, the switching class of a pentagon plus an isolated vertex,
    the icosahedron."""
    for s, g in ((j_minus_i(3), hexagon()), (j_minus_i(4), cube()),
                 (PENTAGON, icosahedron())):
        taylor = taylor_from_seidel(s)
        rep, want = verify_cover(taylor), verify_cover(g)
        assert rep.is_cover
        assert (rep.n, rep.r, rep.mu) == (want.n, want.r, want.mu)
        assert covers_isomorphic(taylor, g)


@pytest.mark.parametrize("convention", (-1, 1))
@pytest.mark.parametrize("name", ("K3", "K4", "pentagon", "T8"))
def test_taylor_labels_follow_the_rule(name, convention):
    """(i, a) is 2i + a, and (i, a) ~ (j, b) iff i != j and
    (-1)^(a+b) = convention * S_ij: the edge set read off S directly."""
    s = {"K3": j_minus_i(3), "K4": j_minus_i(4), "pentagon": PENTAGON,
         "T8": T8}[name]
    n = len(s)
    want = {(2 * i + a, 2 * j + b) for i in range(n) for j in range(i + 1, n)
            for a in (0, 1) for b in (0, 1)
            if (-1) ** (a + b) == convention * s[i][j]}
    g = taylor_from_seidel(s, convention)
    assert set(g.edges) == want
    assert g.fibres == tuple((2 * i, 2 * i + 1) for i in range(n))


Z2 = np.array([[0, 1], [1, 0]])


def voltage_counts(w, add):
    """The cover condition read off W with numpy alone: for each i != j,
    count the k outside {i, j} by W_ik + W_kj - W_ij.  (lambda, mu) when
    every pair counts lambda at 0 and mu at every other element, else
    None."""
    n, r = len(w), len(add)
    neg = np.argmax(add == 0, axis=1)
    d = add[add[w[:, :, None], w[None, :, :]], neg[w][:, None, :]]  # [i, k, j]
    i, k, j = np.ix_(*[np.arange(n)] * 3)
    outside = (k != i) & (k != j)
    counts = np.stack([((d == x) & outside).sum(axis=1) for x in range(r)], -1)
    counts = counts[~np.eye(n, dtype=bool)]
    lam, mu = np.unique(counts[:, 0]), np.unique(counts[:, 1:])
    return (int(lam[0]), int(mu[0])) if len(lam) == len(mu) == 1 else None


def symplectic_voltages(q):
    """W_ij = B(u_i, u_j) = u_i0 u_j1 - u_i1 u_j0 on GF(q)^2 in product
    order, from the field tables."""
    fld = GF(q)
    add, neg, mul = fld.add_table, fld.neg_table, fld.mul_table
    x = np.arange(q * q)
    u0, u1 = x // q, x % q
    return add[mul[u0[:, None], u1], neg[mul[u1[:, None], u0]]]


# W, K's addition table, and (lambda, mu); the Gosset W is (1 - c S) / 2
VOLTAGES = {"ts31": (symplectic_voltages(3), GF(3).add_table, (1, 3)),
            "ts41": (symplectic_voltages(4), GF(4).add_table, (2, 4)),
            "ts51": (symplectic_voltages(5), GF(5).add_table, (3, 5)),
            "gosset-1": ((-T8 == -1).astype(int), Z2, (16, 10)),
            "gosset+1": ((T8 == -1).astype(int), Z2, (10, 16))}


@pytest.mark.parametrize("name", sorted(VOLTAGES))
def test_voltage_cover_condition_matches_verify_cover(name):
    """The counts read off W agree with verify_cover on the built cover,
    and a seeded change of one W_ij with its skew partner breaks both."""
    w, add, lam_mu = VOLTAGES[name]
    rep = verify_cover(cover_from_voltages(w, add))
    assert rep.is_cover and voltage_counts(w, add) == (rep.lam, rep.mu) == lam_mu
    rng = np.random.default_rng(len(w))
    neg = np.argmax(add == 0, axis=1)
    for _ in range(3):
        i, j = rng.choice(len(w), 2, replace=False)
        bad = w.copy()
        bad[i, j] = (w[i, j] + rng.integers(1, len(add))) % len(add)
        bad[j, i] = neg[bad[i, j]]
        assert voltage_counts(bad, add) is None
        assert not verify_cover(cover_from_voltages(bad, add)).is_cover


@pytest.mark.parametrize("q,k", [(4, 1), (8, 1), (8, 2), (9, 1), (16, 1),
                                 (16, 2), (16, 3)])
def test_quotient_of_a_voltage_cover_is_its_voltages_mod_the_subgroup(q, k):
    """U_k, the translations of GF(q) by its low k base-p digits: the
    quotient of TS(q, 1) by U_k is the voltage cover of W // p^k over
    GF(q / p^k), label for label."""
    fld = GF(q)
    v = np.arange(q ** 3)
    gens = [(v - v % q + fld.add_table[v % q, fld.p ** t]).tolist()
            for t in range(k)]
    quot = quotient_cover(thas_somma(q, 1), PermGroup(gens, len(v)))
    want = cover_from_voltages(symplectic_voltages(q) // fld.p ** k,
                               GF(q // fld.p ** k).add_table)
    assert quot.to_json() == want.to_json()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_angles_are_the_voltages_times_minus_s(p):
    """On TS(p, 1), K = Z_p: W is read off the cover, (i, 0) ~ (j, W_ij)
    with (i, a) labelled i*p + a, and tau: (i, a) -> (i, a + 1) generates K.
    For a nontrivial chi, with s its turns at tau over the angle step,
    character_matrix's angle table is (-s W) mod e off the diagonal and -1
    on it: the arc from base i to (j, W_ij) is carried back by tau^-W_ij."""
    g = thas_somma(p, 1)
    n = g.n
    from_base = g.adjacency_matrix()[::p].reshape(n, n, p)
    assert np.array_equal(from_base.sum(axis=2), 1 - np.eye(n, dtype=int))
    w = from_base.argmax(axis=2)
    x = np.arange(n * p)
    tau = tuple((x - x % p + (x + 1) % p).tolist())
    kernel, _ = covering_group(g)
    off = ~np.eye(n, dtype=bool)
    chars = [chi for chi in all_characters(kernel) if not chi.is_trivial]
    assert len(chars) == p - 1
    for chi in chars:
        step = gcd(chi.modulus, *chi.turns.values())
        e, s = chi.modulus // step, chi.turns[tau] // step
        got = character_matrix(g, chi, kernel=kernel)
        assert got.e == e
        assert np.array_equal(got.angle, np.where(off, (-s * w) % e, -1))


@pytest.mark.parametrize("w,r", (
    (np.zeros((2, 3), dtype=int), 2),            # not square
    (np.zeros((3, 3)), 2),                       # not integer
    ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], 2),      # an entry >= r
    (np.eye(3, dtype=int), 2),                   # a nonzero diagonal
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 3)))     # W_10 != -W_01 over Z3
def test_cover_from_voltages_rejects_malformed(w, r):
    z_r = (np.arange(r)[:, None] + np.arange(r)) % r
    with pytest.raises(ValueError):
        cover_from_voltages(w, z_r)


def test_cover_from_voltages_bound():
    """The bound comes before the entries are read: 2049 x 2049 entries
    out of range over Z2 are past the bound first."""
    with pytest.raises(SizeBoundExceeded,
                       match="4098 vertices exceed the bound 4096"):
        cover_from_voltages(np.full((2049, 2049), 5), Z2)


def test_build_dispatch(capsys):
    """A construction the CLI does not name is a usage error."""
    assert main(["build", "petersen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "petersen" in captured.err
