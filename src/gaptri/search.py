"""Exhaustive evaluation of a closed, finite family of candidate models.

The family is a fixed Cartesian product rather than an open-ended DSL so that
a negative outcome is a certificate: "no member matches" quantifies over a
known candidate set. ``rank_search`` takes the candidates one group at a
time, the type maps under one threshold and B-count option. Each requested
row is read and summed once per search, before any census. A group takes the
rows one at a time and holds one census, the current row's: a row whose sum
differs from its total matches no member and is skipped, and a row that
passes is checked once per distinct type pair of its parity. The candidates
that match the same rows, in any group, share one matched-row set and record
end. It ranks by score descending, then serialized model text ascending, and
returns every candidate's record line, each text built once from its group's
spelling and its type map's name; the CLI writes those lines as they are,
takes its table cells from them, and builds a ``SearchResult`` only for a
printed row's witness. ``run_search`` builds one for every candidate from the
same ranking. ``evaluate_candidate`` checks one candidate alone, through
``verify_row``.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    _check_window,
    _text_around_type,
    _type_counts,
    _valid_weights,
    format_model,
)
from .triangle import CoefficientTriangle
from .verify import _entry_text, _obstruction, verify_row


class SearchFamily(NamedTuple):
    """Finite candidate set: the product of thresholds x type maps x b-count options."""

    thresholds: tuple[Threshold, ...]
    type_maps: tuple[TypeMap, ...]
    b_count_options: tuple[tuple[int, int] | None, ...]

    def candidates(self) -> Iterator[ModelSpec]:
        """Every candidate, in the order the search evaluates and ties them."""
        for threshold, b_count in product(self.thresholds, self.b_count_options):
            for type_map in self.type_maps:
                yield ModelSpec(threshold, type_map, b_count)


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


def _group_matches(
    type_maps: Sequence[TypeMap],
    pairs: tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]],
    rows: list[tuple[int, int, tuple[int, ...]]],
    group: tuple[Threshold, tuple[int, int] | None],
) -> list[tuple[int, ...]]:
    """One group's matches, in type-map order: the rows each type map
    matches, its even rows and then its odd rows. ``rows`` holds each row
    once, as (n, sum, entries), and is taken one row at a time: its census is
    read once, and no further than the row's sum, and only a row whose sum
    equals the census total is checked, once per distinct type pair of its
    parity. ``pairs`` holds the distinct pairs for even and then odd n."""
    threshold, b_count = group
    _check_window(b_count)
    found: tuple[dict, dict] = ({}, {})  # per parity: pair -> the rows it matches
    for n, total, row in rows:
        weights, left = [], total
        for weight in _valid_weights(threshold, b_count, n):
            weights.append(weight)
            left -= weight
            if left < 0:
                break
        if left == 0:
            target, hits = dict(enumerate(row, start=1)), found[n % 2]
            for pair in pairs[n % 2]:
                if _type_counts(weights, pair) == target:
                    hits[pair] = hits.get(pair, ()) + (n,)
    even, odd = found
    return [even.get(m.even, ()) + odd.get(m.odd, ()) for m in type_maps]


def _record_end(score: int, rows: Iterable[int]) -> str:
    # A search record after its model text: the score, then the matched rows
    # ascending, or "-" when there are none.
    return f"\t{score}\t{','.join(map(str, sorted(rows))) or '-'}"


def rank_search(
    family: SearchFamily,
    triangle: CoefficientTriangle,
    rows: Iterable[int],
) -> tuple[list[str], Callable[[int], SearchResult]]:
    """Evaluate every candidate and rank by score descending, then by
    serialized model text ascending; ties keep ``family.candidates()`` order.
    Returns each ranked candidate's record line, ``result_record(r) + "\\n"``:
    its model text and the record end it shares with every candidate that
    matches the same rows. Also returns a function giving the
    ``SearchResult`` at a rank (from 0)."""
    type_maps = family.type_maps
    # No type map, no candidate and no row read; otherwise each requested row is
    # read and summed once, before any census, so an absent row is refused first.
    groups = list(product(family.thresholds, family.b_count_options)) if type_maps else []
    requested = dict.fromkeys(rows) if type_maps else ()  # a repeated row counts once
    read = [(n, sum(row), row) for n in requested for row in [triangle.row(n)]]
    pairs = (dict.fromkeys(m.even for m in type_maps), dict.fromkeys(m.odd for m in type_maps))
    matches = [m for group in groups for m in _group_matches(type_maps, pairs, read, group)]
    # One row set and record end per distinct row tuple.
    shared = {key: (frozenset(key), _record_end(len(key), key) + "\n") for key in set(matches)}
    texts: list[str] = []
    for threshold, b_count in groups:
        head, tail = _text_around_type(threshold, b_count)
        texts += [f"{head}{m.name}{tail}" for m in type_maps]
    # Two stable sorts: by text, then by score.
    order = sorted(range(len(texts)), key=texts.__getitem__)
    order.sort(key=[len(m) for m in matches].__getitem__, reverse=True)

    def result(rank: int) -> SearchResult:
        i = order[rank]
        threshold, b_count = groups[i // len(type_maps)]
        model = ModelSpec(threshold, type_maps[i % len(type_maps)], b_count)
        return SearchResult(model, shared[matches[i]][0], len(matches[i]))

    return [texts[i] + shared[matches[i]][1] for i in order], result


def run_search(
    family: SearchFamily,
    triangle: CoefficientTriangle,
    rows: Iterable[int],
    *,
    workers: int = 1,
) -> list[SearchResult]:
    """Evaluate every candidate and sort by score descending, then by
    serialized model text ascending. The search runs in the calling process;
    ``workers`` is accepted and ignored."""
    lines, result = rank_search(family, triangle, rows)
    return [result(rank) for rank in range(len(lines))]


def witness(model: ModelSpec, triangle: CoefficientTriangle, n: int) -> str:
    """Human-readable reason row n fails under the model.

    Names the type-count deficit when the model cannot realize enough distinct
    types for the row, otherwise the smallest disagreeing entry. Raises
    NotAFailureError when the row actually matches.
    """
    verdict = verify_row(model, triangle, n)
    if verdict.matches:
        raise NotAFailureError(n)
    _, provided, required, obstructed = _obstruction(n, verdict.predicted, verdict.target)
    if obstructed:
        return f"type-count deficit: provided {provided} < required {required}"
    k, predicted, target = verdict.mismatch_detail[0]
    left, right = _entry_text(predicted), _entry_text(target)
    prefix = "ill-typed; " if k < 1 else ""
    return f"{prefix}entry mismatch at k={k}: predicted {left}, target {right}"


def result_record(result: SearchResult) -> str:
    """Stable one-line record: model text, score, matched rows (tab-separated)."""
    return format_model(result.model) + _record_end(result.score, result.matched_rows)
