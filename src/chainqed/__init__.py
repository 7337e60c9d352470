"""chainqed: quantum electrodynamics of a 1D chain of two-level dipoles.

Exact dynamics of a chain of two-level centers with isotropic Heisenberg
exchange coupled to quantized field modes and a phonon bath, operator-level
verification of the equations of motion (including their compact
cross-product form), and the semiclassical mean-field closure with Rabi,
spectrum and regime diagnostics.

All internal units take hbar = 1; energies are angular frequencies.
"""

from .hamiltonian import (
    ClassicalDrive,
    FieldMode,
    OperatorCache,
    PhononMode,
    SystemParams,
    TotalHamiltonian,
    build_h0,
    build_hc,
    build_hcf,
    build_hcp,
    build_hf,
    build_hp,
    coupling_q,
)
from .hilbert import (
    DimensionMismatchError,
    ModeSpec,
    Operator,
    SpaceIndex,
    SpaceSpec,
    SpaceTooLargeError,
    annihilation_local,
    anticommutator,
    build_space,
    coherent_local,
    commutator,
    embed_local,
    embed_terms,
    fock_local,
    product_state,
    site_local_state,
)
from .dynamics import (
    EhrenfestReport,
    PropagationError,
    StateVector,
    Trajectory,
    build_g_vector,
    compact_rhs,
    ehrenfest_check,
    heisenberg_rhs_field,
    heisenberg_rhs_phonon,
    heisenberg_rhs_sigma,
    memory_kernel_integral,
    propagate,
    sigma_phonon_correction,
    verify_compact_form,
    verify_heisenberg_identities,
)
from .meanfield import (
    MeanFieldState,
    RabiOracle,
    SpectrumResult,
    VolterraReport,
    close_rhs,
    mean_field_energy,
    mf_propagate,
    rabi_oracle,
    spectrum,
    volterra_diagnostics,
)
from .transition_ops import (
    OpVector,
    TransitionSet,
    build_transition_set,
    check_algebra_closure,
    check_pauli_isomorphism,
    generalized_cross,
    sigma_vector,
)
from .runner import (
    ConfigError,
    RunConfig,
    RunReport,
    export_trajectory,
    import_trajectory,
    load_config,
    run,
)

__version__ = "0.1.0"
