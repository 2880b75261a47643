"""Syndrome-decoding toolkit for sparse parity-check codes.

Construction and serialization of column-regular sparse codes (including
seeded quasi-cyclic instances), out-of-place and single-flip bit-flipping
decoders with operation-count instrumentation, a closed-form decoding
failure rate model that stays accurate to 2**-128 and beyond, and a
reproducible Monte Carlo harness that cross-validates model against
simulation.
"""

from .codes import (
    CodeFormatError,
    CodeIndex,
    ErrorPattern,
    QcSeedSpec,
    SparseParityCheck,
    Syndrome,
    generate_qc,
    generate_qc_group,
    load_code,
    random_regular_code,
    sample_error,
    save_code,
    syndrome,
)
from .decoders import (
    DecodeOutcome,
    DecoderState,
    GroupResult,
    OpCounts,
    argmax_scan,
    bfmax_decode_naive,
    bfmax_decode_sparse,
    decode,
    decode_group,
    predicted_op_count,
)
from .dfr import (
    CounterDistribution,
    DfrPrediction,
    counter_pmfs,
    log_iteration_failure,
    predict_dfr,
    predict_sweep,
    rho,
)
from .simulate import (
    DifferentialReport,
    FileCodeSource,
    FixedCodeSource,
    FreshQcSource,
    OpCountValidation,
    QcCodeSource,
    SimPlan,
    SimReport,
    clopper_pearson,
    differential_campaign,
    opcount_validation,
    run_sim,
)

__version__ = "0.1.0"
