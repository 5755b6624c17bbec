"""Concurrence-based monogamy bounds for pure three-qubit states.

The package computes pairwise and one-to-rest squared concurrences, the
residual tangle, and three monogamy bounds (the additive sum bound and
two multiplicative bounds, one of which is tight), for states given as
eight amplitudes in the |abc> computational basis.
"""

from .inequalities import (
    SATURATION_TOL,
    MonogamyReport,
    build_report,
    classify,
    monogamy_table,
)
from .measures import (
    concurrence_bipartition,
    concurrence_mixed,
    concurrence_pure_2q,
    lambda_spectrum,
    residual_tangle,
    residual_tangle_lambda,
    spin_flip_two_qubit,
    trace_rho_rhotilde,
)
from .states import (
    make_bell_product,
    make_canonical_a,
    make_canonical_b,
    make_ghz,
    make_w,
    read_state_file,
    sample_canonical,
    sample_haar,
    sample_haar_batch,
    validate,
    write_state_file,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SATURATION_TOL",
    "MonogamyReport",
    "build_report",
    "classify",
    "monogamy_table",
    "concurrence_bipartition",
    "concurrence_mixed",
    "concurrence_pure_2q",
    "lambda_spectrum",
    "residual_tangle",
    "residual_tangle_lambda",
    "spin_flip_two_qubit",
    "trace_rho_rhotilde",
    "make_bell_product",
    "make_canonical_a",
    "make_canonical_b",
    "make_ghz",
    "make_w",
    "read_state_file",
    "sample_canonical",
    "sample_haar",
    "sample_haar_batch",
    "validate",
    "write_state_file",
]
