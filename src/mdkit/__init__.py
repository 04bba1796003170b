"""mdkit: computing with modular tensor categories at the level of
modular data (S and T matrices).

Core objects are immutable :class:`ModularData` instances; constructors
cover pointed categories, Drinfeld doubles, twisted doubles of cyclic
groups, the SU(2) level series and a handful of presets.  On top sit the
Verlinde fusion ring, a modular-invariant solver, commutative-algebra
screening, and Witt-group operations.
"""

from .errors import (DegeneracyResolutionError, DegenerateFormError,
                     DimensionMismatchError, IncompleteEnumerationError,
                     MdkError, NonIntegralError, NonRationalChargeError,
                     NotAGroupError, SearchBudgetError, SpecParseError,
                     ToleranceError, UnknownPresetError,
                     ValidationFailedError)
from .modular_data import (Check, FusionRing, ModularData, ValidationReport,
                           central_charge, charge_conjugation, deligne_product,
                           gauss_sum, reverse, validate, verlinde_fusion)
from .groups import (CharacterTable, FiniteGroup, Subgroup, centralizer,
                     character_table, cyclic, direct_product, group_from_table,
                     group_preset, GROUP_PRESETS)
from .constructors import (PRESETS, QuadraticForm, drinfeld_double,
                           equivalent_up_to_relabeling, pointed, preset,
                           su2_level, twisted_double_cyclic)
from .invariants import (CommutantBasis, ModularInvariant, classify_invariant,
                         commutant_basis, enumerate_invariants)
from .algebras import (AlgebraCandidate, AnisotropyReport,
                       WittInvariants, WittObstruction,
                       algebra_from_invariant, anisotropy_screen,
                       local_modules_dim, screen_algebra, witt_invariants,
                       witt_inverse, witt_obstruction, witt_product)
from .buildspec import BuildSpec, evaluate, parse_spec, render
from .numeric import default_eps, phase_fraction, unit_root
from .serialize import (dump_group, dump_modular_data, load_group,
                        load_modular_data, resolve_group)

__version__ = "0.1.0"

__all__ = [
    "MdkError", "DimensionMismatchError", "NonIntegralError",
    "NotAGroupError", "DegeneracyResolutionError", "DegenerateFormError",
    "NonRationalChargeError", "ValidationFailedError", "SearchBudgetError",
    "IncompleteEnumerationError", "SpecParseError", "UnknownPresetError",
    "ToleranceError",
    "ModularData", "Check", "ValidationReport", "FusionRing", "validate",
    "verlinde_fusion", "gauss_sum", "central_charge", "deligne_product",
    "reverse", "charge_conjugation",
    "FiniteGroup", "Subgroup", "CharacterTable", "group_from_table",
    "cyclic", "direct_product", "group_preset", "GROUP_PRESETS",
    "centralizer", "character_table",
    "QuadraticForm", "pointed", "drinfeld_double", "twisted_double_cyclic",
    "su2_level", "preset", "PRESETS", "equivalent_up_to_relabeling",
    "CommutantBasis", "ModularInvariant", "commutant_basis",
    "enumerate_invariants", "classify_invariant",
    "AlgebraCandidate", "screen_algebra", "local_modules_dim",
    "algebra_from_invariant", "WittInvariants", "witt_invariants",
    "witt_product", "witt_inverse", "WittObstruction", "witt_obstruction",
    "AnisotropyReport", "anisotropy_screen",
    "BuildSpec", "parse_spec", "render", "evaluate",
    "dump_modular_data", "load_modular_data", "dump_group", "load_group",
    "resolve_group",
    "unit_root", "phase_fraction", "default_eps",
    "__version__",
]
