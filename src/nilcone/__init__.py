"""Exact computations around characters, q-analogs and the nilpotent cone
for small-rank reductive groups, with a rank-one orbit calculus and a CLI.
"""

from .errors import ConfigurationError, DomainError, ResourceError
from .qpoly import QPoly
from .roots import build_datum, supported_presets, RootDatum, WeylElement
from .characters import (weight_multiplicity, irreducible_character,
                         tensor_decompose, restrict_to_levi, weyl_dimension,
                         dual_weight)
from .qanalog import (q_kostant, lusztig_q_analog, p_bk_polynomial,
                      graded_mult_in_nilcone, hilbert_series_nilcone)
from .reps import (build_irrep, principal_e, centralizer_and_exponents,
                   bk_filtration, verify_theorem_filtrations, poincare_gr,
                   MatrixRep)
from .homspaces import (free_object, structure_sheaf, hom_profile_kostant,
                        hom_profile_slice, adjunction_check,
                        orlov_axiom_check, mixed_shift, levi_pullback)
from . import sl2

__all__ = [
    "ConfigurationError", "DomainError", "ResourceError", "QPoly",
    "build_datum", "supported_presets", "RootDatum", "WeylElement",
    "weight_multiplicity", "irreducible_character", "tensor_decompose",
    "restrict_to_levi", "weyl_dimension", "dual_weight",
    "q_kostant", "lusztig_q_analog", "p_bk_polynomial",
    "graded_mult_in_nilcone", "hilbert_series_nilcone",
    "build_irrep", "principal_e", "centralizer_and_exponents",
    "bk_filtration", "verify_theorem_filtrations", "poincare_gr", "MatrixRep",
    "free_object", "structure_sheaf", "hom_profile_kostant",
    "hom_profile_slice", "adjunction_check", "orlov_axiom_check",
    "mixed_shift", "levi_pullback", "sl2",
]
