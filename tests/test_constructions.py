"""Constructors validated through verify_cover (the trust anchor)."""
import numpy as np
import pytest

from coverlab import (covering_group, covers_isomorphic, cube, hexagon,
                      icosahedron, seidel_of_graph, taylor_from_seidel,
                      thas_somma, verify_cover)
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
    with pytest.raises(ValueError):
        thas_somma(6, 1)  # not a prime power
    # 17^3 = 4913 vertices, but GF(17) fails its own field bound first
    with pytest.raises(ValueError, match="supported bound 16"):
        thas_somma(17, 1)
    assert thas_somma(16, 1).v == 4096
    for q, m in ((2, 6), (3, 4), (3, 10 ** 5)):
        with pytest.raises(SizeBoundExceeded, match="exceed the bound 4096"):
            thas_somma(q, m)


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


def test_seidel_round_trip():
    """Seidel matrices written out here give the three small covers: J - I
    on 3 and on 4 points the hexagon and the cube, and the regular two-graph
    on 6 points, the switching class of a pentagon plus an isolated vertex,
    the icosahedron."""
    pentagon = [[int(i < 5 and j < 5 and (i - j) % 5 in (1, 4))
                 for j in range(6)] for i in range(6)]

    def j_minus_i(n):
        return np.ones((n, n), dtype=int) - np.eye(n, dtype=int)

    for s, g in ((j_minus_i(3), hexagon()), (j_minus_i(4), cube()),
                 (seidel_of_graph(pentagon), icosahedron())):
        assert covers_isomorphic(taylor_from_seidel(s), g)


def test_build_dispatch(capsys):
    """A construction the CLI does not name is a usage error."""
    assert main(["build", "petersen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "petersen" in captured.err
