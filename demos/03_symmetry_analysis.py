"""Automorphism groups, covering groups, fibre rank, and quotient covers.

The headline identity: a vertex-transitive group containing the full
covering group has exactly rank(G on fibres) - 1 orbits on arcs.  Quotients
by subgroups of the covering group stay covers, with fibre size divided and
mu multiplied by the subgroup order.
"""
from coverlab import (arc_orbit_count, automorphism_group, covering_group,
                      cube, fibre_action, hexagon, icosahedron,
                      quotient_cover, subgroups_of, thas_somma, verify_cover)

print("Full automorphism groups and the arc-orbit identity")
for name, g in [("hexagon", hexagon()), ("cube", cube()),
                ("icosahedron", icosahedron()),
                ("symplectic q=3", thas_somma(3, 1)),
                ("symplectic q=4", thas_somma(4, 1))]:
    aut = automorphism_group(g)
    fa = fibre_action(g, aut)
    info = fa.kernel_info
    arcs = arc_orbit_count(g, fa)
    print(f"\n{name}:")
    print(f"  |Aut| = {aut.order()}, covering group order {info['order']}, "
          f"abelian: {info['is_abelian']}, regular on fibres: "
          f"{info['regular_on_fibres']}")
    print(f"  rank on fibres = {fa.rank}, subdegrees {fa.subdegrees}")
    print(f"  arc orbits = {arcs['arc_orbits']} "
          f"(= rank - 1: {arcs['arc_orbits'] == fa.rank - 1})")

print("\nQuotients of the (16, 4, 4) cover by covering subgroups of order 2")
g = thas_somma(4, 1)
kernel, _ = covering_group(g)
for sub in subgroups_of(kernel):
    if sub.order() != 2:
        continue
    q = quotient_cover(g, sub)
    rep = verify_cover(q)
    gens = [p.cycles() for p in sub.generators]
    print(f"  subgroup {gens[0][:3]}... -> "
          f"({rep.n}, {rep.r}, {rep.mu})-cover on {q.v} vertices")

print("\nDisplacement profiles of cube automorphisms (distance moved):")
from coverlab import displacement_profile
from coverlab.perms import Permutation
for label, perm in [("antipodal map", Permutation([7 - u for u in range(8)])),
                    ("one-bit flip", Permutation([u ^ 4 for u in range(8)]))]:
    print(f"  {label}: alpha = {displacement_profile(cube(), perm)}")
