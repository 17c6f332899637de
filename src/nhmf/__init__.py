"""nhmf: exact arithmetic for nearly holomorphic elliptic modular forms.

Truncated q-expansions over Q with coefficients polynomial in X = 1/(4*pi*y),
the sl2 operator algebra acting on them, structure decomposition into raised
holomorphic seeds, leading-term Laurent analysis of Eisenstein constant terms,
local invariants of binary quadratic spaces with coherence detection, and
symbolic category-O bookkeeping for the modules these forms generate.

The q-series core is imported with the package.  The adelic side (``laurent``,
``quadratic``, ``category_o``) is imported on first use of any of its names
(PEP 562), so a process that never touches it does not pay for it.  The
module ``decompose`` stays eager: the function ``nhmf.decompose`` shadows it,
and loading that module later would rebind the package attribute to the
module.
"""

__version__ = "0.1.0"

from .errors import NhmfError
from .series import NearlyHolomorphicForm
from .pi_scalar import PiScalar
from .operators import (
    InfinitesimalCharacter,
    ScaledForm,
    casimir,
    casimir_eigenvalue,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    leading_column_factor,
    lower_analytic,
    lower_weight,
    raise_analytic,
    raise_weight,
)
from .generators import (
    BinaryForm,
    bernoulli,
    delta_cusp,
    divisor_power_sum,
    eisenstein,
    eisenstein2,
    level1_basis,
    theta_series,
)
from .decompose import (
    Decomposition,
    Level1Basis,
    character_split,
    decompose,
)

# The names each lazily loaded module re-exports.
_LAZY = {
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

__all__ = [
    "NhmfError",
    "NearlyHolomorphicForm",
    "PiScalar",
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
    "BinaryForm",
    "bernoulli",
    "delta_cusp",
    "divisor_power_sum",
    "eisenstein",
    "eisenstein2",
    "level1_basis",
    "theta_series",
    "Decomposition",
    "Level1Basis",
    "character_split",
    "decompose",
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name):
    """Import the module that defines ``name`` and bind all its re-exports,
    so that every later lookup is a plain attribute read."""
    module_name = _HOME.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    globals().update({export: getattr(module, export) for export in _LAZY[module_name]})
    return module if name == module_name else globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOME))
