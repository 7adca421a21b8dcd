"""Simulation and statistical verification for event-centered laws of
simple point processes on the real line: exact samplers for stationary,
event-stationary, reweighted, and deliberately non-convergent processes,
plus self-normalized Monte Carlo estimators and an identity-check suite.
"""

from .errors import (
    ConfigError,
    IndexOutOfPattern,
    InsufficientContext,
    InsufficientCoverage,
    InsufficientWindow,
    LowEffectiveSampleSize,
    NoMean,
    NotApplicable,
    OutsideWindow,
    PalmLabError,
    TooFewCheckpoints,
    UnknownTilt,
    ZeroDenominator,
)
from .pattern import PatternBatch, PointPattern, read_patterns, write_patterns
from .events import (
    BATTERY,
    Eventuality,
    SUITE_BATTERY,
    ev_and,
    ev_count_eq,
    ev_example44,
    ev_first_point_le,
    ev_interval_eq,
    ev_interval_gt,
    ev_not,
    ev_or,
    ev_straddle,
    ev_true,
    parse_eventuality,
)
from .models import (
    IntervalDistribution,
    Need,
    ProcessModel,
    Tilt,
    deterministic,
    example44,
    example44_block_ends,
    example44_cesaro_exact,
    example44_labels,
    example44_run_lengths,
    example84_exact,
    exponential,
    gamma_intervals,
    make_tilt,
    model_from_config,
    poisson_ts,
    pstar_model,
    renewal_es,
    renewal_ts_from_es,
    sample_window,
    tilted_ts,
    uniform_intervals,
)
from .estimate import (
    BinnedEstimate,
    Estimate,
    est_event_probability,
    est_intensity,
    est_intermediate,
    est_palm_zero,
    est_shifted_palm,
    mc_mean,
)
from .ams import (
    AmsVerdict,
    CesaroTrace,
    ams_verdict,
    cesaro_event,
    cesaro_time,
    convert_es_to_ts,
    convert_ts_to_es,
)
from .identities import (
    DEFAULT_SUITE_MODELS,
    IdentityReport,
    IdentitySpec,
    REGISTRY,
    REGISTRY_BY_ID,
    check_identity,
    run_suite,
)

__version__ = "0.1.0"
