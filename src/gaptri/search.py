"""Exhaustive evaluation of a closed, finite family of candidate models.

The family is a fixed Cartesian product rather than an open-ended DSL so that
a negative outcome is a certificate: "no member matches" quantifies over a
known candidate set. ``rank_search`` takes the candidates one group at a
time, the type maps under one threshold and B-count option. A group shares
one valid set, so a row whose sum differs from its size matches no member
and is skipped; a row that passes is verified once per type pair, and the
type maps that match the same rows share one score, matched-row set and
record end. It ranks by score descending, then serialized model text
ascending, whatever the execution order, and returns every candidate's
record line, each text built once from its group's spelling and its type
map's name; the CLI writes those lines as they are, takes its table cells
from them, and builds a ``SearchResult`` only for a printed row's witness.
``run_search`` builds one for every candidate from the same ranking.
``evaluate_candidate`` checks one candidate alone. The process pool is
imported only by ``workers > 1``, so importing this module does not load
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
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
    _text_around_type,
    _valid_weights,
    format_model,
)
from .triangle import CoefficientTriangle, row_sum
from .verify import _entry_text, obstruction_report, verify_row


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


def _group_verdicts(
    pair_columns: tuple[tuple[list[TypeMap], list[int]], ...],
    triangle: CoefficientTriangle,
    rows: tuple[int, ...],
    group: tuple[Threshold, tuple[int, int] | None],
) -> list[tuple[int, frozenset[int], str]]:
    """One group's verdicts, in type-map order: (score, matched rows, record
    end ``"\\t<score>\\t<matched rows>\\n"``), one tuple shared by the type maps
    that match the same rows. Only rows whose sum equals the group's
    valid-set size are verified, once per type pair; ``rows`` holds no row
    twice. ``pair_columns`` holds, for even and then odd n, the first type
    map with each distinct pair and each type map's index into those."""
    threshold, b_count = group
    if not pair_columns[0][0]:
        return []
    first = ModelSpec(threshold, pair_columns[0][0][0], b_count)  # checks the window once
    # The row first: an absent row is refused before any census work.
    live = [n for n in rows if row_sum(triangle, n) == sum(_valid_weights(first, n))]
    hits = []
    for parity, (firsts, index) in enumerate(pair_columns):
        ns = [n for n in live if n % 2 == parity]
        # With no row to check, no model is built and every pair matches ().
        models = [ModelSpec(threshold, m, b_count) for m in firsts] if ns else firsts
        # For each distinct pair, the rows of this parity it matches.
        found = [tuple(n for n in ns if verify_row(m, triangle, n).matches) for m in models]
        hits.append(map(found.__getitem__, index))
    # A type map's key is its (even rows, odd rows) pair.
    keys = list(zip(*hits))
    shared = {}
    for key in set(keys):
        matched = sorted(key[0] + key[1])
        text = ",".join(map(str, matched)) or "-"
        shared[key] = (len(matched), frozenset(matched), f"\t{len(matched)}\t{text}\n")
    return list(map(shared.__getitem__, keys))


def rank_search(
    family: SearchFamily,
    triangle: CoefficientTriangle,
    rows: Iterable[int],
    *,
    workers: int = 1,
) -> tuple[list[str], Callable[[int], SearchResult]]:
    """Evaluate every candidate and rank by score descending, then by
    serialized model text ascending; ties keep evaluation order, the groups
    as (threshold, B-count option) pairs in product order and the type maps
    in family order within each. Returns each ranked candidate's record line,
    ``result_record(r) + "\\n"``: its model text and the record end it shares
    with the type maps of its group that match the same rows. Also returns
    a function giving the ``SearchResult`` at a rank (from 0). ``workers`` > 1
    maps the groups over that many processes, importing the pool only then;
    the ranking is identical."""
    type_maps = family.type_maps
    groups = list(product(family.thresholds, family.b_count_options))
    # For even and then odd n: the first type map with each distinct pair,
    # and each type map's index into those.
    columns = []
    for pairs in ([m.even for m in type_maps], [m.odd for m in type_maps]):
        firsts = dict(zip(reversed(pairs), reversed(type_maps)))
        index = {pair: i for i, pair in enumerate(firsts)}
        columns.append((list(firsts.values()), [index[pair] for pair in pairs]))
    # A repeated row counts once.
    evaluate = partial(_group_verdicts, tuple(columns), triangle, tuple(dict.fromkeys(rows)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(evaluate, groups))
    else:
        parts = list(map(evaluate, groups))
    verdicts = list(chain.from_iterable(parts))
    texts: list[str] = []
    for threshold, b_count in groups:
        head, tail = _text_around_type(threshold, b_count)
        texts += [f"{head}{m.name}{tail}" for m in type_maps]
    # Two stable sorts: by text, then by score.
    order = sorted(range(len(texts)), key=texts.__getitem__)
    order.sort(key=[v[0] for v in verdicts].__getitem__, reverse=True)

    def result(rank: int) -> SearchResult:
        i = order[rank]
        threshold, b_count = groups[i // len(type_maps)]
        score, matched, _ = verdicts[i]
        model = ModelSpec(threshold, type_maps[i % len(type_maps)], b_count)
        return SearchResult(model, matched, score)

    return [texts[i] + verdicts[i][2] for i in order], result


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
    lines, result = rank_search(family, triangle, rows, workers=workers)
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
    report = obstruction_report(model, triangle, n)
    if report.obstructed:
        return (
            f"type-count deficit: provided {report.provided_types} "
            f"< required {report.required_types}"
        )
    k, predicted, target = verdict.mismatch_detail[0]
    left, right = _entry_text(predicted), _entry_text(target)
    prefix = "ill-typed; " if k < 1 else ""
    return f"{prefix}entry mismatch at k={k}: predicted {left}, target {right}"


def result_record(result: SearchResult) -> str:
    """Stable one-line record: model text, score, matched rows (tab-separated)."""
    matched = ",".join(str(n) for n in sorted(result.matched_rows)) or "-"
    return f"{format_model(result.model)}\t{result.score}\t{matched}"
