"""Gap-constrained binary sequence models checked against integer triangles.

The library enumerates binary sequences over {R, B}, classifies them by the
distance between their first and last B, scores candidate type-assignment
models against target coefficient triangles, and certifies when a whole
family of models cannot match a row.

Each layer module is executed on first use, not when the package is
imported, so a command pays only for the layers it runs. ``from gaptri
import X`` resolves X in its layer through the table below.
"""


def _lazy_layer(name: str):
    """Put ``gaptri.<name>`` into ``sys.modules`` unexecuted; its first
    attribute access executes it. Being in ``sys.modules`` keeps it the one
    module object that every import and every monkeypatch sees."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


errors = _lazy_layer("errors")
sequences = _lazy_layer("sequences")
model = _lazy_layer("model")
triangle = _lazy_layer("triangle")
verify = _lazy_layer("verify")
search = _lazy_layer("search")

#: The exported names, by the layer that defines them.
_EXPORTS = {
    errors: """EmptySequenceError GaptriError IndexGapError InvalidLengthError
        InvalidSequenceError InvalidSymbolError MissingRowError ModelParseError
        NotAFailureError TriangleParseError TruncatedRowError""",
    model: """Affine Constant EvenOddAffine HalfFloor ModelSpec ParityFlip Threshold
        TypeHistogram TypeMap Unbounded canonical_model format_model is_valid
        max_type_count parse_model type_for_gap type_histogram type_of valid_set""",
    search: """SearchFamily SearchResult default_family evaluate_candidate result_record
        run_search witness""",
    sequences: """MAX_N BinarySequence GapStatistics count_by_gap enumerate_all
        gap_statistics parse_sequence""",
    triangle: """CoefficientTriangle embedded_half_triangle format_triangle half_row_rule
        ingest_bfile parse_triangle required_type_count row_sum""",
    verify: """ObstructionReport RowVerdict boundary_check obstruction_record
        obstruction_report verdict_record verify_row""",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached here, so a name always reads what its layer binds now.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_HOME[name], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
