"""nhmf: exact arithmetic for nearly holomorphic elliptic modular forms.

Truncated q-expansions over Q with coefficients polynomial in X = 1/(4*pi*y),
the sl2 operator algebra acting on them, structure decomposition into raised
holomorphic seeds, leading-term Laurent analysis of Eisenstein constant terms,
local invariants of binary quadratic spaces with coherence detection, and
symbolic category-O bookkeeping for the modules these forms generate.

Importing the package loads ``errors`` and nothing else.  Every other
module is imported on first use of any of its names (PEP 562), so a process
loads only what it calls: the CLI's local commands never load the q-series
core, and its q-series commands never load the adelic side.

The function ``nhmf.decompose`` shares its name with the module that defines
it.  The import system binds a submodule as an attribute of the package when
it loads it, so the package's module type is a subclass of ModuleType whose
``__setattr__`` binds the function in place of the module ``decompose``:
``nhmf.decompose`` is the function however that module comes to be loaded.
"""

import sys as _sys
from types import ModuleType as _ModuleType

# Loaded with the package: it imports nothing, and the benchmark reads it
# from sys.modules before it touches any other name.
from .errors import NhmfError

__version__ = "0.1.0"


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        if name == "decompose" and isinstance(value, _ModuleType):
            value = value.decompose
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

# The names each lazily loaded module re-exports.
_LAZY = {
    "arith": (),
    "series": ("NearlyHolomorphicForm",),
    "pi_scalar": ("PiScalar",),
    "operators": (
        "InfinitesimalCharacter",
        "ScaledForm",
        "casimir",
        "casimir_eigenvalue",
        "infinitesimal_character",
        "iterate_lower",
        "iterate_raise",
        "leading_column_factor",
        "lower_analytic",
        "lower_weight",
        "raise_analytic",
        "raise_weight",
    ),
    "generators": (
        "BinaryForm",
        "bernoulli",
        "delta_cusp",
        "eisenstein",
        "eisenstein2",
        "level1_basis",
        "theta_series",
    ),
    "decompose": (
        "Decomposition",
        "Level1Basis",
        "character_split",
        "decompose",
    ),
    "laurent": (
        "ConstantTermReport",
        "LaurentScalar",
        "Verdict",
        "archimedean_factor",
        "constant_term_report",
        "gamma_at",
        "unramified_intertwining_constant",
        "zeta_ratio_at",
    ),
    "quadratic": (
        "CharacterDescriptor",
        "CoherenceResult",
        "Collection",
        "LocalInvariant",
        "Place",
        "QuadSpace2D",
        "ReducibilityVerdict",
        "check_coherence",
        "collection_of",
        "enumerate_definite_spaces",
        "hilbert_symbol",
        "is_local_square",
        "local_invariants",
        "reducibility",
        "relevant_places",
        "unramified_eigenvalue",
    ),
    "category_o": (
        "BlockClassification",
        "CharacterFamily",
        "DecompositionDescriptor",
        "ModuleClass",
        "catalog",
        "classify_block",
        "composition_factors",
        "identify_module",
        "integral_parallel_filter",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = ["NhmfError", *(name for names in _LAZY.values() for name in names)]


def __getattr__(name):
    """Import the module that defines ``name`` and bind all its re-exports,
    so that every later lookup is a plain attribute read."""
    module_name = _HOME.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    globals().update({export: getattr(module, export) for export in _LAZY[module_name]})
    # Loading the module also bound it here (for decompose, the function).
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOME))
