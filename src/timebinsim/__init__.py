"""Simulation and error-budget engine for deterministic generation of
time-bin-encoded multiphoton GHZ and linear cluster states from a driven
four-level emitter coupled to a photonic-crystal waveguide.
"""

__version__ = "0.1.0"

from .params import (
    MU_B_OVER_H_GHZ_PER_T,
    BranchingBetas,
    ParamError,
    PhysicalParams,
    betas_from_branching,
    branching_from_betas,
    gamma_d_for_indistinguishability,
    indistinguishability,
    preset,
    zeeman_detuning,
)
from .budget import (
    EXC_COEFFICIENT,
    InfidelityBudget,
    generation_rate,
    infidelity_first_order,
    per_qubit_infidelity,
    t2_drift_error,
)
from .dynamics import (
    ExcitationErrors,
    IntegrationError,
    LevelSystem,
    Pulse,
    excitation_error_probability,
    optimize_pulse_duration,
)
from .cyclemap import (
    CycleMap,
    CycleOptions,
    build_cycle_map,
    ideal_cycle_map,
    rotation_matrix,
)
from .protocol import (
    CapacityError,
    HybridState,
    NoiseConfig,
    TargetKind,
    canonical_stabilizers,
    conditional_fidelity,
    drift_diffusion_from_t2,
    ideal_target,
    overhauser_average,
    run_protocol,
    run_protocol_cycles,
    stabilizer_expectations,
)
from .waveguide import (
    ModeField,
    ModeFieldError,
    branching_map,
    coupling_at,
    gamma_of_group_index,
    load_mode_field,
    synthetic_w1_mode,
)
from .measurement import (
    BasisSetting,
    DetectionRecord,
    MeasurementError,
    estimate_ghz_fidelity,
    ghz_parity_settings,
    joint_outcome_distribution,
    povm_elements,
    sample_measurements,
)
