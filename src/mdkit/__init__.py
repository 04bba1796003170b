"""mdkit: computing with modular tensor categories at the level of
modular data (S and T matrices).

Core objects are immutable :class:`ModularData` instances; constructors
cover pointed categories, Drinfeld doubles, twisted doubles of cyclic
groups, the SU(2) level series and a handful of presets.  On top sit the
Verlinde fusion ring, a modular-invariant solver, commutative-algebra
screening, and Witt-group operations.

The names below are exported lazily: ``import mdkit`` loads no
submodule, and ``mdkit.<name>`` imports the name's home module on first
use and reads the name from it on every access, never caching it here,
so that a function replaced in its home module is replaced here too.
A command-line run thus loads only the modules its command uses.
"""

import importlib
import sys
import types

# Each exported name, by its home module.
_HOMES = {
    "errors": (
        "DegeneracyResolutionError", "DegenerateFormError",
        "DimensionMismatchError", "IncompleteEnumerationError", "MdkError",
        "NonIntegralError", "NonRationalChargeError", "NotAGroupError",
        "SearchBudgetError", "SpecParseError", "ToleranceError",
        "UnknownPresetError", "ValidationFailedError"),
    "modular_data": (
        "Check", "FusionRing", "ModularData", "ValidationReport",
        "central_charge", "charge_conjugation", "deligne_product",
        "gauss_sum", "reverse", "validate", "verlinde_fusion"),
    "groups": (
        "CharacterTable", "FiniteGroup", "Subgroup", "centralizer",
        "character_table", "cyclic", "direct_product", "group_from_table",
        "group_preset", "GROUP_PRESETS"),
    "constructors": (
        "PRESETS", "QuadraticForm", "drinfeld_double",
        "equivalent_up_to_relabeling", "pointed", "preset", "su2_level",
        "twisted_double_cyclic"),
    "invariants": (
        "CommutantBasis", "ModularInvariant", "classify_invariant",
        "commutant_basis", "enumerate_invariants"),
    "algebras": (
        "AlgebraCandidate", "AnisotropyReport", "WittInvariants",
        "WittObstruction", "algebra_from_invariant", "anisotropy_screen",
        "local_modules_dim", "screen_algebra", "witt_invariants",
        "witt_inverse", "witt_obstruction", "witt_product"),
    "buildspec": ("BuildSpec", "evaluate", "parse_spec", "render"),
    "numeric": ("default_eps", "phase_fraction", "unit_root"),
    "serialize": (
        "dump_group", "dump_modular_data", "load_group", "load_modular_data",
        "resolve_group"),
}
_HOME_OF = {name: f"{__name__}.{home}" for home, names in _HOMES.items()
            for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME_OF, "__version__"]


class _Package(types.ModuleType):
    """The package's module type: each exported name is a read-only
    property on it (see :func:`_export`).

    Not a PEP 562 module ``__getattr__``: on Python 3.11 that runs only
    after the failed lookup has built an AttributeError, which costs
    about 1 us per access, and callers such as perfbench's tasks look
    names up on every call.
    """


def _export(name: str, home: str) -> property:
    def read(_package):
        # a loaded home straight from sys.modules: import_module takes
        # about four times as long as the rest of the read
        return getattr(sys.modules.get(home) or importlib.import_module(home),
                       name)
    return property(read)


for _name, _home in _HOME_OF.items():
    setattr(_Package, _name, _export(_name, _home))
del _name, _home
sys.modules[__name__].__class__ = _Package


def __dir__():
    return sorted(set(globals()) | set(__all__))
