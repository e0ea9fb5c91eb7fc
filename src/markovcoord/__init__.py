"""Coordination-region computation and block-Markov coding simulation
over finite-state Markov channels with strictly causal encoders."""

__version__ = "0.1.0"

from .probability import (
    AssumptionViolated,
    ChainStructure,
    Dist,
    JointDist,
    Kernel,
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
    aep_audit,
    aep_constants,
    full_type,
    triplet_type,
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
    decode_block,
    encode_block,
    run_scheme,
)

__all__ = [name for name in dir() if not name.startswith("_")]
