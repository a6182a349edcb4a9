"""Antipodal covers of complete graphs and their equiangular line systems.

Exact parameter calculus and feasibility tables, combinatorial verification
of the cover axioms, permutation-group analysis (automorphisms, covering
groups, quotient covers, rank and arc orbits), the character-matrix
construction of equiangular tight frames (including SIC-sized systems), and
exhaustive reproductions of the finite number-theoretic case analyses.
"""

from .exact import QuadExt
from .params import (CoverParams, FamilyBParams, derive_params, family_A,
                     family_B, feasible_A, feasible_B, hoffman_bounds)
from .graphcore import (CoverGraph, CoverReport, params_of, spectrum_check,
                        verify_cover)
from .constructions import (cover_from_voltages, cube, hexagon, icosahedron,
                            seidel_of_graph, taylor_from_seidel, thas_somma)
from .perms import PermGroup, Permutation, subgroups_of
from .autgroup import automorphism_group, covers_isomorphic
from .groupops import (arc_orbit_count, covering_group, displacement_profile,
                       fibre_action, involution_audit, quotient_cover,
                       structure_audit, subdegree_identity_check)
from .frames import (Character, CharacterMatrix, LineSystem, all_characters,
                     character_matrix, extract_lines, hermitian_jacobi,
                     lines_from_cover, verify_etf)
from . import casecheck, numtheory

__version__ = "0.1.0"

__all__ = [
    "QuadExt", "CoverParams", "FamilyBParams", "derive_params", "family_A",
    "family_B", "feasible_A", "feasible_B", "hoffman_bounds", "CoverGraph",
    "CoverReport", "params_of",
    "spectrum_check", "verify_cover", "cover_from_voltages", "cube",
    "hexagon", "icosahedron",
    "seidel_of_graph", "taylor_from_seidel", "thas_somma", "PermGroup",
    "Permutation",
    "subgroups_of", "automorphism_group",
    "covers_isomorphic", "arc_orbit_count",
    "covering_group", "displacement_profile", "fibre_action",
    "involution_audit", "quotient_cover", "structure_audit",
    "subdegree_identity_check", "Character", "CharacterMatrix", "LineSystem",
    "all_characters", "character_matrix", "extract_lines",
    "hermitian_jacobi", "lines_from_cover", "verify_etf", "casecheck",
    "numtheory",
]
