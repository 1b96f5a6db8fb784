"""Gaussian bosonic numerics: states, certified truncations, capacity bounds."""

from .states import (
    GaussianState,
    InvalidStateError,
    PureAmplifier,
    PureLoss,
    Transform,
    ValidationReport,
    apply_transform,
    beam_splitter,
    cov_norm_bound,
    dilation,
    displacement,
    mean_photon_number,
    reduce_state,
    require_valid,
    state_from_dict,
    state_to_dict,
    stinespring_output,
    symplectic_form,
    tensor,
    thermal_state,
    tmsv_state,
    two_mode_squeezer,
    vacuum_state,
    validate_state,
)
from .spectral import (
    coherent_information,
    entropy_variance_pure_loss,
    gaussian_overlap,
    h_function,
    petz_conditional_entropy_half,
    symplectic_eigenvalues,
    thermal_entropy_variance,
    v_sqrt,
    von_neumann_entropy,
    williamson,
)
from .tail import (
    CutoffCapError,
    TailBoundResult,
    cutoff_for_error,
    cutoff_nongaussian,
    tail_bound_closed,
    tail_bound_optimized,
    trace_distance_truncation_bound,
)
from .fock import (
    DimensionCapError,
    FockMatrix,
    FockTraceError,
    basis_dimension,
    beam_splitter_fock_coeffs,
    enumerate_basis,
    fock_matrix_elements,
    fock_to_dict,
    truncate_normalize,
)
from .tracedist import (
    TraceDistanceResult,
    finite_trace_distance,
    gaussian_trace_distance,
)
from .capacity import (
    CapacityBound,
    aep_lower_bound_amplifier,
    aep_lower_bound_generic,
    aep_lower_bound_pure_loss,
    asymptotic_capacity,
    best_lower_bound,
    channel_uses_necessary,
    channel_uses_sufficient,
    ec_aep_lower_bound,
    ec_asymptotic,
    ec_variance_lower_bound,
    improved_lower_bound_pure_loss,
    invert_sqrt_bound,
    petz_terms_amplifier,
    petz_terms_pure_loss,
    upper_bound_nshot,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
