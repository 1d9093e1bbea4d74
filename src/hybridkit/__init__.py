"""Comonadic analysis toolkit for hybrid logic and the bounded fragment over
finite relational structures: explicit play comonads, model-comparison games,
tree covers and coalgebras, and invariance checking."""

from .structures import (
    INF,
    DistanceMatrix,
    Signature,
    Structure,
    ball_part,
    disjoint_union,
    gaifman_distance,
    gaifman_graph,
    is_homomorphism,
    is_partial_isomorphism,
    load_structure,
    reachable_part,
    structure_from_data,
    structure_to_data,
)
from .syntax import FOFormula, HybridFormula, hybrid_depth, is_bounded, quantifier_rank
from .parser import parse_fo, parse_hybrid, print_fo, print_hybrid
from .semantics import eval_fo, eval_hybrid, gaifman_relativize, standard_translation
from .scott import characteristic_formula, scott_formula, scott_type
from .comonads import (
    ComonadKind,
    ComonadStructure,
    build_comonad,
    check_comonad_laws,
    cokleisli_extension,
    comultiplication,
    counit,
    find_cokleisli_morphism,
)
from .games import (
    GameResult,
    GameVariant,
    back_and_forth_rank,
    solve,
    solve_Gk,
    solve_bijection,
    verify_strategy,
)
from .coalgebras import (
    Coalgebra,
    TreeCover,
    check_coalgebra_laws,
    check_open_pathwise_embedding,
    coalgebra_number,
    coalgebra_to_cover,
    cover_to_coalgebra,
    generated_tree_depth,
    is_generated_tree_cover,
)
from .characterization import (
    build_workspace,
    check_invariance,
    ef_types_agree,
    synthesize_bounded_equivalent,
    verify_workspace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
