"""blockineq: machine checkers for block-matrix positivity inequalities.

The package verifies, numerically and reproducibly, a family of operator
and scalar inequalities about positive semidefinite block matrices: partial
trace / partial transpose bounds, two-block trace bounds, submatrix trace
and determinant bounds, and Choi-matrix certification of completely
positive / completely copositive maps. Every positivity verdict comes from a
self-contained Jacobi eigensolver: a vectorized round-robin kernel for any
stack handed to ``hermitian_eigenvalues_stack`` (every block residual among
them) and for any matrix of dimension 12 or more, and a scalar row-cyclic
loop for a smaller matrix solved alone or as a member of an ``is_psd``
stack. Every random input is addressable by an explicit seed, and every
check returns a replayable report.
"""

from .blockops import (
    BlockMatrix,
    BlockStack,
    block_get,
    from_blocks,
    is_ppt,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    realign,
)
from .densemat import (
    DEFAULT_TOL,
    EigenResult,
    as_matrix,
    determinant,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    is_psd,
    kron,
)
from .errors import (
    BlockIndexError,
    BlockineqError,
    ConvergenceError,
    HermiticityError,
    NormOverflowError,
    ParseError,
    PreconditionError,
    SelfCheckError,
    ShapeError,
    UsageError,
    ValidationError,
)
from .inequalities import (
    CheckReport,
    IndexSet,
    PairBatch,
    PairReports,
    check_block2,
    check_combined_reduction,
    check_copositive_partial_trace,
    check_det_submatrix,
    check_phi_lower,
    check_ppt_reduction,
    check_trace_submatrix,
    check_upper_bound,
    exhaustive_pairs,
    overlap_embedding,
    submatrix,
)
from .maps import (
    BUILTIN_MAPS,
    LinearMapRep,
    apply_map,
    blockwise_image,
    builtin_map,
    certify_completely_copositive,
    certify_completely_positive,
    choi_matrix,
    co_choi_matrix,
)
from .matio import load, parse, save, serialize, to_doc
from .randgen import (
    GenSpec,
    complex_gaussians,
    derive_seed,
    derive_seeds,
    generate,
    random_ppt,
    random_psd,
    random_separable,
)
from .suites import (
    SUITE_NAMES,
    Counterexample,
    RunReport,
    SuiteConfig,
    entangled_pattern,
    run_files,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MAPS",
    "BlockIndexError",
    "BlockMatrix",
    "BlockStack",
    "BlockineqError",
    "CheckReport",
    "ConvergenceError",
    "Counterexample",
    "DEFAULT_TOL",
    "EigenResult",
    "GenSpec",
    "HermiticityError",
    "IndexSet",
    "LinearMapRep",
    "NormOverflowError",
    "PairBatch",
    "PairReports",
    "ParseError",
    "PreconditionError",
    "RunReport",
    "SUITE_NAMES",
    "SelfCheckError",
    "ShapeError",
    "SuiteConfig",
    "UsageError",
    "ValidationError",
    "apply_map",
    "as_matrix",
    "block_get",
    "blockwise_image",
    "builtin_map",
    "certify_completely_copositive",
    "certify_completely_positive",
    "check_block2",
    "check_combined_reduction",
    "check_copositive_partial_trace",
    "check_det_submatrix",
    "check_phi_lower",
    "check_ppt_reduction",
    "check_trace_submatrix",
    "check_upper_bound",
    "choi_matrix",
    "co_choi_matrix",
    "complex_gaussians",
    "derive_seed",
    "derive_seeds",
    "determinant",
    "entangled_pattern",
    "exhaustive_pairs",
    "from_blocks",
    "generate",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
    "is_ppt",
    "is_psd",
    "kron",
    "load",
    "overlap_embedding",
    "parse",
    "partial_trace_1",
    "partial_trace_2",
    "partial_transpose",
    "random_ppt",
    "random_psd",
    "random_separable",
    "realign",
    "run_files",
    "run_suite",
    "save",
    "serialize",
    "submatrix",
    "to_doc",
]
