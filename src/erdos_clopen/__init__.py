"""Exact-arithmetic membership, radius certificates, and additive
counterexamples for clopen sets of the rational l2 sequence space."""

from .exact import (
    EmptyIntervalError,
    InputError,
    InvalidRootError,
    Ordering,
    RootExpr,
    RootValue,
    UnsupportedFormError,
    cmp_rational_vs_root,
    cmp_root_expr,
    format_rational,
    largest_rational_at_most,
    parse_rational,
    rational_in_interval,
)
from .space import ZERO, Point, add, m_index, scale, unit
from .clopen import (
    DEFAULT_PAIR,
    DEFAULT_SCHEDULE,
    AlphaBetaPair,
    CertificateKind,
    PreconditionViolatedError,
    RadiusCertificate,
    Schedule,
    closedness_radius,
    first_failing_n,
    first_violating_index,
    in_A,
    in_E_alpha,
    in_O,
    o_openness_radius,
    openness_radius,
)
from .witness import (
    RefutationVerdict,
    SourceFailureError,
    VSpec,
    WitnessCase,
    WitnessRecord,
    construct_witness,
    file_source,
    generalized_witness,
    ray_source,
    refute_group_compatibility,
    verify_witness,
)
from .harness import (
    CLAIM_IDS,
    ClaimReport,
    InvalidParamsError,
    SampleConfig,
    SplitMix64,
    derive_seed,
    perturb_within,
    run_suite,
    sample_point,
    suite_exit_status,
    verify_claim,
)

__version__ = "0.1.0"
