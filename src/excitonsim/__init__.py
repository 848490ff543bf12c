"""excitonsim: excitation transport and apparent entanglement on truncated
Fock spaces of coupled-pigment networks."""

__version__ = "0.1.0"

from .hilbert import (
    ConvergenceError,
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    annihilation,
    basis_state,
    embed,
    identity,
    number_operator,
    tensor,
)
from .states import (
    TruncationError,
    coherent_truncated,
    fock,
    leveled_coherent,
    leveled_norm_sq,
    min_coherent_dim,
)
from .dynamics import (
    LindbladSpec,
    Trajectory,
    decohered_dimer_state,
    exchange_unitary,
    expm_oracle,
    lindblad_propagate,
    liouvillian_matrix,
)
from .entanglement import (
    ConcurrenceResult,
    ExcitationProjector,
    ZeroWeightError,
    concurrence_pure,
    concurrence_wootters,
    evolved_leveled_state,
    leading_coefficient,
    max_concurrence,
    project_renormalize,
)
from .transport import (
    ConfigError,
    EfficiencyReport,
    NetworkModel,
    NetworkSpec,
    build_network,
    default_time_grid,
    efficiency_integrated,
    efficiency_peak,
    initial_state,
    pairwise_concurrence,
    truncation_robustness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
