"""dgmlab: desk-scale numerics for double sine series with general
monotone coefficient classes.

Provides difference operators and block p-norms over sequence rules,
scanners for the windowed variation class bounds, Dirichlet-type kernels
with step-r summation by parts, regular-convergence remainder profiling,
and the explicit divergence example with its certificate.
"""

from .convergence import (
    DECAY_CONDITIONS,
    GRID_ABSCISSA_LIMIT,
    TAIL_HORIZON_LIMIT,
    ConvergenceVerdict,
    DecayReport,
    DecayVerdict,
    GridSpec,
    RemainderProfile,
    TailEstimate,
    classify_decay,
    decay_report,
    double_partial_sum,
    grid_points,
    grid_size_bound,
    log_integral_bound,
    mixed_diff_tails,
    rational_point_convergence,
    regular_remainder_sup,
    row_diff_tail_sups,
    row_tail_sups,
)
from .counterexample import (
    DivergenceCertificate,
    divergence_certificate,
    double_rule,
    double_term,
    single_rule,
    single_term,
    violation_ratio,
)
from .kernels import (
    PartialSumBound,
    SbpDecomposition,
    SingularAbscissa,
    band_index,
    direct_sine_sum,
    kernel_band_bound,
    kernel_bound_sweep,
    partial_sum_bound,
    sbp_decompose,
)
from .membership import (
    BoundFamily,
    BoundSpec,
    BoundValue,
    EmbeddingReport,
    MembershipReport,
    Verdict,
    divisor_embedding_check,
    embedding_check,
    gm_membership_scan,
    membership_scan,
    rhs_mixed_bound,
    rhs_row_bound,
)
from .sequences import (
    HORIZON_LIMIT,
    DoubleSequenceRule,
    SequenceRule,
    TailEnvelope,
    additive_rule,
    block_p_norm,
    constant_rule,
    double_block_p_norm,
    geometric_double_rule,
    geometric_rule,
    power_double_rule,
    power_rule,
    product_rule,
    rule_from_function,
    rule_from_values,
    table_rule,
    transpose_rule,
    zero_double_rule,
)

__version__ = "0.1.0"
