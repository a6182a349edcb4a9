"""The automorphism search: refinement properties and pinned group orders.

The refinement properties are checked against a naive colour-refinement
oracle written here, and the |Aut| pins come from closed forms in the
literature, so neither expectation is computed by the search under test.
"""
import pytest
from hypothesis import given, settings, strategies as st

from coverlab import automorphism_group, thas_somma
from coverlab.autgroup import _refine
from conftest import relabelled


@st.composite
def graphs_with_partitions(draw):
    """(bit rows, ordered partition, relabelling) on up to 20 vertices."""
    n = draw(st.integers(1, 20))
    adj = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    colour = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = [[u for u in range(n) if colour[u] == c]
             for c in sorted(set(colour))]
    perm = draw(st.permutations(range(n)))
    return adj, cells, perm


def colour_refinement(adj, cells):
    """Coarsest equitable refinement as a set partition, by repeating
    'colour := (colour, multiset of neighbour colours)' until stable."""
    n = len(adj)
    colour = [0] * n
    for i, cell in enumerate(cells):
        for u in cell:
            colour[u] = i
    while True:
        sig = [(colour[u], tuple(sorted(colour[w] for w in range(n)
                                        if adj[u] >> w & 1)))
               for u in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if len(ids) == len(set(colour)):
            break
        colour = new
    return {frozenset(u for u in range(n) if colour[u] == c)
            for c in set(colour)}


@given(graphs_with_partitions())
@settings(max_examples=300, deadline=None)
def test_refine_is_the_coarsest_equitable_refinement(case):
    adj, cells, perm = case
    out, trace = _refine(cells, adj)
    # (a) refines the input and keeps the input cells' order
    owner = {u: i for i, cell in enumerate(cells) for u in cell}
    homes = [owner[cell[0]] for cell in out]
    assert all(owner[u] == home for cell, home in zip(out, homes)
               for u in cell)
    assert homes == sorted(homes) and set(homes) == set(range(len(cells)))
    assert sorted(u for cell in out for u in cell) == list(range(len(adj)))
    # (b) equitable: every vertex of a cell has as many neighbours in each cell
    for x in out:
        for y in out:
            mask = sum(1 << w for w in y)
            assert len({(adj[u] & mask).bit_count() for u in x}) == 1
    # (c) the coarsest such partition
    assert set(map(frozenset, out)) == colour_refinement(adj, cells)
    # (d) a relabelled input refines to the relabelled output, same trace
    adj2 = [0] * len(adj)
    for u, row in enumerate(adj):
        for w in range(len(adj)):
            if row >> w & 1:
                adj2[perm[u]] |= 1 << perm[w]
    out2, trace2 = _refine([[perm[u] for u in c] for c in cells], adj2)
    assert [set(c) for c in out2] == [{perm[u] for u in c} for c in out]
    assert trace2 == trace


def symplectic_cover_aut_order(q: int, m: int) -> int:
    """|Aut TS(q, m)| = q^(2m+1) |ΓGSp(2m, q)|, q = p^e: the translations
    and covering shifts, times the semilinear symplectic similitudes,
    e (q - 1) |Sp(2m, q)| with |Sp(2m, q)| = q^(m^2) prod (q^(2i) - 1)
    (Taylor, The Geometry of the Classical Groups, 1992, ch. 8)."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 1
    while p ** e != q:
        e += 1
    sp = q ** (m * m)
    for i in range(1, m + 1):
        sp *= q ** (2 * i) - 1
    return q ** (2 * m + 1) * e * (q - 1) * sp


@pytest.mark.parametrize("q, m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2),
                                  (3, 2)])
def test_symplectic_cover_aut_order(q, m):
    expected = {(2, 1): 48, (3, 1): 1296, (4, 1): 23_040, (5, 1): 60_000,
                (2, 2): 23_040, (3, 2): 25_194_240}[q, m]
    assert symplectic_cover_aut_order(q, m) == expected
    g = relabelled(thas_somma(q, m), 10 * q + m)
    assert automorphism_group(g).order() == expected

