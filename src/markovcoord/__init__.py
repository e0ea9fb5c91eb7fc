"""Coordination-region computation and block-Markov coding simulation
over finite-state Markov channels with strictly causal encoders."""

__version__ = "0.1.0"

from .probability import (
    AssumptionViolated,
    ChainStructure,
    Dist,
    JointDist,
    Kernel,
    TransitionMatrix,
    chain_structure,
    cond_mutual_info,
    entropy,
    induced_transition,
    lifted_transition,
    mutual_info,
    stationary_dist,
    tv_distance,
)
from .typicality import (
    AepConstants,
    EnumerationTooLarge,
    FullType,
    TripletType,
    aep_audit,
    aep_constants,
    conditional_gap,
    full_type,
    project_type,
    sequence_log_prob,
    triplet_type,
    type_gap,
)
from .region import (
    FeasibilityReport,
    InconsistentTarget,
    InnerCandidate,
    OuterCandidate,
    assemble_inner,
    assemble_outer,
    inner_feasibility,
    optimize_auxiliary,
    outer_feasibility,
    separation_slack,
)
from .codec import (
    Codebook,
    DecodeResult,
    DecodeStatus,
    MemoryGuard,
    RunResult,
    SchemeConfig,
    channel_block,
    decode_block,
    encode_block,
    run_scheme,
)

__all__ = [name for name in dir() if not name.startswith("_")]
