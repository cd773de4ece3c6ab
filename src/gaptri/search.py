"""Exhaustive evaluation of a closed, finite family of candidate models.

The family is a fixed Cartesian product rather than an open-ended DSL so that
a negative outcome is a certificate: "no member matches" quantifies over a
known candidate set. Many candidates behave alike on a row: a verdict
depends only on the row, the gap limit clipped to the row length, the type
map's affine pair at that length and the clipped B-count window. So
``run_search`` verifies one candidate per such behaviour class and row,
while ``evaluate_candidate`` checks one candidate on its own. The
deterministic contract is the sorted output order (score descending, then
serialized model text ascending), never the execution order. The process
pool is imported only by ``run_search(..., workers > 1)``, so importing
this module does not load ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotAFailureError
from .model import (
    Affine,
    Constant,
    EvenOddAffine,
    HalfFloor,
    ModelSpec,
    ParityFlip,
    Threshold,
    TypeMap,
    Unbounded,
    format_model,
)
from .triangle import CoefficientTriangle
from .verify import obstruction_report, verify_row


class SearchFamily(NamedTuple):
    """Finite candidate set: the product of thresholds x type maps x b-count options."""

    thresholds: tuple[Threshold, ...]
    type_maps: tuple[TypeMap, ...]
    b_count_options: tuple[tuple[int, int] | None, ...]

    def candidates(self) -> Iterator[ModelSpec]:
        for parts in product(self.thresholds, self.type_maps, self.b_count_options):
            yield ModelSpec(*parts)


class SearchResult(NamedTuple):
    """One candidate's outcome over the requested rows: the rows it matches
    and their number.

    The row verdicts themselves are not kept: their histograms grow with the
    row length, so a family's verdicts over long rows would not fit in
    memory; ``verify_row`` gives any one of them again, and ``witness`` says
    why a row fails, marking a type index k < 1 as ill-typed.
    """

    model: ModelSpec
    matched_rows: frozenset[int]
    score: int


def default_family() -> SearchFamily:
    """Thresholds {0,1,2,3,floor(n/2),inf} x type maps {parity flip, two fixed
    affines, all even/odd affine pairs over a in {-1,0,1,2}, b in {0,1,2,3}}
    x b-count options {unconstrained, (1,1), (1,2), (2,2)}: 6216 candidates."""
    pairs = [(a, b) for a in (-1, 0, 1, 2) for b in (0, 1, 2, 3)]
    type_maps: list[TypeMap] = [ParityFlip(), Affine(1, 1), Affine(-1, 2)]
    type_maps.extend(EvenOddAffine(even, odd) for even in pairs for odd in pairs)
    return SearchFamily(
        thresholds=(Constant(0), Constant(1), Constant(2), Constant(3), HalfFloor(), Unbounded()),
        type_maps=tuple(type_maps),
        b_count_options=(None, (1, 1), (1, 2), (2, 2)),
    )


def evaluate_candidate(
    model: ModelSpec,
    triangle: CoefficientTriangle,
    rows: Sequence[int],
) -> SearchResult:
    """Outcome of one candidate, row by row: the reference for ``run_search``."""
    matched = frozenset(n for n in rows if verify_row(model, triangle, n).matches)
    return SearchResult(model=model, matched_rows=matched, score=len(matched))


def _row_verdicts(family: SearchFamily, triangle: CoefficientTriangle, n: int) -> bytes:
    """One flag per candidate, in candidate order: 1 when it matches row n.
    Only the first candidate of each behaviour class is verified."""
    memo: dict[tuple, bool] = {}
    keys = product(
        [min(t.limit(n), n - 1) for t in family.thresholds],
        [m.pair(n) for m in family.type_maps],
        [(lo, min(hi, n)) for lo, hi in (b or (1, n) for b in family.b_count_options)],
    )
    flags = bytearray()
    for parts, key in zip(product(*family), keys):
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = verify_row(ModelSpec(*parts), triangle, n).matches
        flags.append(verdict)
    return bytes(flags)


def run_search(
    family: SearchFamily,
    triangle: CoefficientTriangle,
    rows: Iterable[int],
    *,
    workers: int = 1,
) -> list[SearchResult]:
    """Evaluate every candidate and sort by score descending, then by
    serialized model text ascending.

    Each row gives one column of verdicts (``_row_verdicts``); ``workers`` > 1
    computes the columns in that many processes, importing the pool only
    then. The merged output is identical either way."""
    row_list = tuple(rows)
    verdicts = partial(_row_verdicts, family, triangle)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(verdicts, row_list))
    else:
        columns = list(map(verdicts, row_list))
    results = []
    # Not zip(*columns): with no rows that would drop every candidate.
    for model, *flags in zip(family.candidates(), *columns):
        matched = frozenset(compress(row_list, flags))
        results.append(SearchResult(model, matched, len(matched)))
    results.sort(key=lambda r: (-r.score, format_model(r.model)))
    return results


def witness(model: ModelSpec, triangle: CoefficientTriangle, n: int) -> str:
    """Human-readable reason row n fails under the model.

    Names the type-count deficit when the model cannot realize enough distinct
    types for the row, otherwise the smallest disagreeing entry. Raises
    NotAFailureError when the row actually matches.
    """
    verdict = verify_row(model, triangle, n)
    if verdict.matches:
        raise NotAFailureError(n)
    report = obstruction_report(model, triangle, n)
    if report.obstructed:
        return (
            f"type-count deficit: provided {report.provided_types} "
            f"< required {report.required_types}"
        )
    k, predicted, target = verdict.mismatch_detail[0]
    left = "absent" if predicted is None else str(predicted)
    right = "absent" if target is None else str(target)
    prefix = "ill-typed; " if k < 1 else ""
    return f"{prefix}entry mismatch at k={k}: predicted {left}, target {right}"


def result_record(result: SearchResult) -> str:
    """Stable one-line record: model text, score, matched rows (tab-separated)."""
    matched = ",".join(str(n) for n in sorted(result.matched_rows)) or "-"
    return f"{format_model(result.model)}\t{result.score}\t{matched}"
