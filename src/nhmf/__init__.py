"""nhmf: exact arithmetic for nearly holomorphic elliptic modular forms.

Truncated q-expansions over Q with coefficients polynomial in X = 1/(4*pi*y),
the sl2 operator algebra acting on them, structure decomposition into raised
holomorphic seeds, leading-term Laurent analysis of Eisenstein constant terms,
local invariants of binary quadratic spaces with coherence detection, and
symbolic category-O bookkeeping for the modules these forms generate.
"""

__version__ = "0.1.0"

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
    leading_column_factor,
)
from .laurent import (
    ConstantTermReport,
    LaurentScalar,
    Verdict,
    archimedean_factor,
    constant_term_report,
    gamma_at,
    unramified_intertwining_constant,
    zeta_ratio_at,
)
from .quadratic import (
    CharacterDescriptor,
    CoherenceResult,
    Collection,
    LocalInvariant,
    Place,
    QuadSpace2D,
    ReducibilityVerdict,
    check_coherence,
    collection_of,
    enumerate_definite_spaces,
    hilbert_symbol,
    is_local_square,
    local_invariants,
    reducibility,
    relevant_places,
    unramified_eigenvalue,
)
from .category_o import (
    BlockClassification,
    CharacterFamily,
    DecompositionDescriptor,
    ModuleClass,
    catalog,
    classify_block,
    composition_factors,
    identify_module,
    integral_parallel_filter,
)
from .errors import NhmfError
