"""Closed-form effective Hamiltonians for multi-tone interaction models.

The package builds, in closed form, the time-dependent effective
Hamiltonians obtained by iterating ``H(t) * int_0^t H`` to any order up
to 6, together with the matching time-ordered propagator corrections,
and then adjudicates their properties numerically: Hermiticity of the
secular (non-oscillating) parts under distinct-carrier conditions,
non-Hermiticity of the raw time-dependent truncations, non-unitarity of
the truncated propagator expansion and its coupling scaling, and the gap
of the third-order operator-reordering identity.
"""

from types import ModuleType as _ModuleType

from .builder import (
    EffectiveOrderResult,
    MAX_ORDER,
    default_time_grid,
    dyson_term,
    dyson_terms,
    dyson_truncated,
    heff2_rwa,
    heff2_timedep,
    heff3_timedep,
    heff_n_timedep,
    heff_secular,
)
from .diagnostics import (
    Report,
    ZOO_NAMES,
    eq6_gap,
    eq6_gap_grid,
    make_model,
    model_digest,
    run_report,
)
from .dsl import (
    ModelSpecAst,
    compile_model,
    load_model,
    parse_model,
    serialize_model,
)
from .errors import (
    DimensionCapError,
    DimensionMismatchError,
    EffhamError,
    FrequencyConditionError,
    ModelCompileError,
    ModelError,
    ModelSyntaxError,
    ModelValidationError,
    OperatorValueError,
    PowerCapError,
    QuadratureError,
    SeriesOverflowError,
    SweepOverflowError,
    TermBudgetError,
    UnknownModelError,
)
from .metrics import hermiticity_defect, unitarity_defect
from .model import (
    HBAR,
    FrequencyReport,
    MultiToneHamiltonian,
    ToneTerm,
    commutation_probe,
    frequency_report,
)
from .operators import (
    MAX_DIMENSION,
    adjoint,
    annihilate,
    as_operator,
    commutator,
    create,
    frobenius_norm,
    identity,
    matrix_exponential,
    projector,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    standard_operator,
    tensor_product,
    zero,
)
from .oracle import (
    PropagationResult,
    fidelity_distance,
    propagate_exact,
    propagate_series,
    quad_oracle,
)
from .series import OperatorSeries, series_residual
from .tones import POWER_CAP, TOL_ZERO, ToneMono, TonePoly, poly_allclose

__version__ = "0.1.0"

# Each public name is declared once, in its import above; the submodules
# those imports bind are not part of the public API.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
