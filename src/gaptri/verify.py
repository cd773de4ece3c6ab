"""Row-by-row comparison of a model's histograms against a target triangle.

A predicted type with no corresponding target column counts as a mismatch
even when all shared keys agree: a blank cell means "does not appear", not a
free slot.

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
    counts, target = predicted.counts, dict(enumerate(row, start=1))
    detail = tuple(
        (k, counts.get(k), target.get(k))
        for k in sorted(counts.keys() | target.keys())
        if counts.get(k) != target.get(k)
    )
    return RowVerdict(n, predicted, row, not detail, detail)


def _entry_text(entry: int | None) -> str:
    if entry is None:
        return "absent"
    try:
        return str(entry)
    except ValueError:  # past the int-string limit, which the readers keep
        from decimal import Decimal

        return str(Decimal(entry))


def boundary_check(
    model: ModelSpec, triangle: CoefficientTriangle, n_max: int
) -> list[RowVerdict]:
    """Verdicts for rows 1..n_max, in row order."""
    return [verify_row(model, triangle, n) for n in range(1, n_max + 1)]


def obstruction_report(
    model: ModelSpec, triangle: CoefficientTriangle, n: int
) -> ObstructionReport:
    """Counting certificate for row n: the model's distinct types at length n,
    counted without a census, against the row's entries (a missing row first)."""
    required, provided = required_type_count(triangle, n), max_type_count(model, n)
    return ObstructionReport(n, provided, required, provided < required)


def _histogram_text(histogram: TypeHistogram) -> str:
    # The predicted counts as k:c pairs, types ascending; "" when there are none.
    return ",".join(f"{k}:{_entry_text(c)}" for k, c in histogram.counts.items())


def verdict_record(verdict: RowVerdict) -> str:
    """One-line machine form of a row verdict (format in the module docstring)."""
    predicted = _histogram_text(verdict.predicted)
    target = ",".join(str(entry) for entry in verdict.target)
    flag = "true" if verdict.matches else "false"
    return f"row={verdict.n} match={flag} predicted={predicted} target={target}"


def obstruction_record(report: ObstructionReport) -> str:
    """One-line machine form of an obstruction report (format in the module docstring)."""
    flag = "true" if report.obstructed else "false"
    return (
        f"row={report.n} provided={report.provided_types} "
        f"required={report.required_types} obstructed={flag}"
    )
