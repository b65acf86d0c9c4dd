"""dgmlab: desk-scale numerics for double sine series with general
monotone coefficient classes.

Provides difference operators and block p-norms over sequence rules,
scanners for the windowed variation class bounds, Dirichlet-type kernels
with step-r summation by parts, regular-convergence remainder profiling,
and the explicit divergence example with its certificate.

Each public name loads its module on first use, so ``import dgmlab`` and
every CLI subcommand compile only the modules they run.
"""

import importlib
import os

# dgmlab makes no BLAS call that gains from threads; an idle OpenBLAS worker only spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# module -> the public names it defines
_EXPORTS = {
    "convergence": (
        "DECAY_CONDITIONS",
        "GRID_ABSCISSA_LIMIT",
        "TAIL_HORIZON_LIMIT",
        "ConvergenceVerdict",
        "DecayReport",
        "DecayVerdict",
        "GridSpec",
        "RemainderProfile",
        "TailEstimate",
        "classify_decay",
        "decay_report",
        "grid_points",
        "grid_size_bound",
        "log_integral_bound",
        "mixed_diff_tails",
        "rational_point_convergence",
        "regular_remainder_sup",
        "row_diff_tail_sups",
        "row_tail_sups",
    ),
    "counterexample": (
        "DivergenceCertificate",
        "divergence_certificate",
        "double_rule",
        "single_rule",
        "violation_ratio",
    ),
    "kernels": (
        "PartialSumBound",
        "SbpDecomposition",
        "SingularAbscissa",
        "band_index",
        "direct_sine_sum",
        "kernel_band_bound",
        "kernel_bound_sweep",
        "partial_sum_bound",
        "sbp_decompose",
    ),
    "membership": (
        "BoundFamily",
        "BoundSpec",
        "BoundValue",
        "EmbeddingReport",
        "MembershipReport",
        "Verdict",
        "divisor_embedding_check",
        "embedding_check",
        "gm_membership_scan",
        "membership_scan",
        "rhs_mixed_bound",
        "rhs_row_bound",
    ),
    "sequences": (
        "HORIZON_LIMIT",
        "DoubleSequenceRule",
        "SequenceRule",
        "TailEnvelope",
        "additive_rule",
        "block_p_norm",
        "double_block_p_norm",
        "geometric_double_rule",
        "geometric_rule",
        "power_double_rule",
        "power_rule",
        "product_rule",
        "rule_from_function",
        "rule_from_values",
        "table_rule",
        "transpose_rule",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that defines a public name, then cache the name here.

    An unknown name raises ``AttributeError``, so ``from dgmlab import cli``
    still falls back to importing the submodule.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
