"""Exhaustive evaluation of a closed, finite family of candidate models.

The family is a fixed Cartesian product rather than an open-ended DSL so that
a negative outcome is a certificate: "no member matches" quantifies over a
known candidate set. ``run_search`` takes the candidates one group at a time,
the type maps under one threshold and B-count option. A group shares one
valid set, so a row whose sum differs from its size matches no member and
is skipped; a row that passes is verified once per type pair.
``evaluate_candidate`` checks one candidate alone. Output is sorted by score
descending, then serialized model text ascending, whatever the execution
order. The process pool is imported only by ``run_search(..., workers > 1)``,
so importing this module does not load ``concurrent.futures`` or
``multiprocessing``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
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
    type_histogram,
)
from .triangle import CoefficientTriangle, row_sum
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


def _group_results(
    type_maps: tuple[TypeMap, ...],
    triangle: CoefficientTriangle,
    rows: tuple[int, ...],
    group: tuple[Threshold, tuple[int, int] | None],
) -> list[SearchResult]:
    """Outcomes of one group's candidates, in type-map order: only rows whose
    sum equals the group's histogram total are verified, once per type pair."""
    threshold, b_count = group
    models = [ModelSpec(threshold, m, b_count) for m in type_maps]
    if not models:
        return []
    # The row first: an absent row is refused before any census work.
    live = [n for n in rows if row_sum(triangle, n) == type_histogram(models[0], n).total]
    checked = {(n, model.type_map.pair(n)): model for model in models for n in live}
    verdicts = {key: verify_row(model, triangle, key[0]).matches for key, model in checked.items()}
    results = []
    for model in models:
        matched = frozenset(n for n in live if verdicts[n, model.type_map.pair(n)])
        results.append(SearchResult(model, matched, len(matched)))
    return results


def run_search(
    family: SearchFamily,
    triangle: CoefficientTriangle,
    rows: Iterable[int],
    *,
    workers: int = 1,
) -> list[SearchResult]:
    """Evaluate every candidate and sort by score descending, then by
    serialized model text ascending. ``workers`` > 1 maps the (threshold,
    B-count option) groups over that many processes, importing the pool only
    then; the output is identical."""
    groups = product(family.thresholds, family.b_count_options)
    evaluate = partial(_group_results, family.type_maps, triangle, tuple(rows))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(evaluate, groups))
    else:
        parts = list(map(evaluate, groups))
    return sorted(chain.from_iterable(parts), key=lambda r: (-r.score, format_model(r.model)))


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
