"""Row-by-row comparison of a model's histograms against a target triangle.

A predicted type with no corresponding target column counts as a mismatch
even when all shared keys agree: a blank cell means "does not appear", not a
free slot. Row checks for distinct n are independent pure computations, so
callers may run them in parallel; per-row content is deterministic.

Machine-readable record formats (UTF-8, one record per line):

    row=<n> match=<true|false> predicted=<k1:c1,k2:c2,...> target=<c1,c2,...>
    row=<n> provided=<p> required=<r> obstructed=<true|false>
"""

from __future__ import annotations

from typing import NamedTuple

from .model import ModelSpec, TypeHistogram, max_type_count, type_histogram
from .triangle import CoefficientTriangle, required_type_count


class RowVerdict(NamedTuple):
    """Outcome of checking one triangle row against a model's prediction.

    ``mismatch_detail`` lists (k, predicted, target) triples for every type
    index where the two sides disagree, with None standing for an absent
    entry; it is empty exactly when ``matches`` is true.
    """

    n: int
    predicted: TypeHistogram
    target: tuple[int, ...]
    matches: bool
    mismatch_detail: tuple[tuple[int, int | None, int | None], ...]


class ObstructionReport(NamedTuple):
    """Counting certificate: a model realizing fewer distinct types than the
    target row has nonzero entries cannot match it."""

    n: int
    provided_types: int
    required_types: int
    obstructed: bool


def verify_row(model: ModelSpec, triangle: CoefficientTriangle, n: int) -> RowVerdict:
    """Compare the model's type histogram at length n with triangle row n."""
    row = triangle.row(n)
    predicted = type_histogram(model, n)
    target = {k: row[k - 1] for k in range(1, len(row) + 1)}
    detail = []
    for k in sorted(set(predicted.counts) | set(target)):
        left = predicted.counts.get(k)
        right = target.get(k)
        if left != right:
            detail.append((k, left, right))
    return RowVerdict(
        n=n,
        predicted=predicted,
        target=row,
        matches=not detail,
        mismatch_detail=tuple(detail),
    )


def boundary_check(
    model: ModelSpec, triangle: CoefficientTriangle, n_max: int
) -> list[RowVerdict]:
    """Verdicts for rows 1..n_max, in row order."""
    return [verify_row(model, triangle, n) for n in range(1, n_max + 1)]


def check_type_count_bound(model: ModelSpec, n_max: int) -> int:
    """Largest number of distinct types the model realizes at any length <= n_max."""
    return max(max_type_count(model, n) for n in range(1, n_max + 1))


def obstruction_report(
    model: ModelSpec, triangle: CoefficientTriangle, n: int
) -> ObstructionReport:
    # The row first: a missing row is refused before any census work.
    required = required_type_count(triangle, n)
    provided = max_type_count(model, n)
    return ObstructionReport(
        n=n,
        provided_types=provided,
        required_types=required,
        obstructed=provided < required,
    )


def verdict_record(verdict: RowVerdict) -> str:
    """One-line machine form of a row verdict (format in the module docstring)."""
    predicted = ",".join(f"{k}:{c}" for k, c in verdict.predicted.counts.items())
    target = ",".join(str(entry) for entry in verdict.target)
    flag = "true" if verdict.matches else "false"
    return f"row={verdict.n} match={flag} predicted={predicted} target={target}"


def obstruction_record(report: ObstructionReport) -> str:
    flag = "true" if report.obstructed else "false"
    return (
        f"row={report.n} provided={report.provided_types} "
        f"required={report.required_types} obstructed={flag}"
    )
