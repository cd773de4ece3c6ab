"""Gap-constrained binary sequence models checked against integer triangles.

The library enumerates binary sequences over {R, B}, classifies them by the
distance between their first and last B, scores candidate type-assignment
models against target coefficient triangles, and certifies when a whole
family of models cannot match a row.
"""

from .errors import (
    EmptySequenceError,
    GaptriError,
    IndexGapError,
    InvalidLengthError,
    InvalidSequenceError,
    InvalidSymbolError,
    MissingRowError,
    ModelParseError,
    NotAFailureError,
    TriangleParseError,
    TruncatedRowError,
)
from .model import (
    Affine,
    Constant,
    EvenOddAffine,
    HalfFloor,
    ModelSpec,
    ParityFlip,
    Threshold,
    TypeHistogram,
    TypeMap,
    Unbounded,
    canonical_model,
    format_model,
    is_valid,
    max_type_count,
    parse_model,
    type_for_gap,
    type_histogram,
    type_of,
    valid_set,
)
from .search import (
    SearchFamily,
    SearchResult,
    default_family,
    evaluate_candidate,
    result_record,
    run_search,
    witness,
)
from .sequences import (
    MAX_N,
    BinarySequence,
    GapStatistics,
    count_by_gap,
    enumerate_all,
    gap_statistics,
    parse_sequence,
)
from .triangle import (
    CoefficientTriangle,
    embedded_half_triangle,
    format_triangle,
    half_row_rule,
    ingest_bfile,
    parse_triangle,
    required_type_count,
    row_sum,
)
from .verify import (
    ObstructionReport,
    RowVerdict,
    boundary_check,
    obstruction_record,
    obstruction_report,
    verdict_record,
    verify_row,
)

__version__ = "0.1.0"
