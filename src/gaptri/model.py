"""Candidate interpretation models and their per-length type histograms.

A model has three independent knobs: a gap threshold deciding which sequences
count as valid, a type map sending (length parity, gap) to a column index k,
and an optional bound on how many B symbols a valid sequence may carry.

A gap threshold is one ceiling ``halves * n // 2 + offset`` together with
its spelling: (0, c) for ``c``, (1, 0) for ``n/2`` and (2, -1) for ``inf``.
A type map is one affine pair (a, b) for even n and one for odd n, giving
k = a*gap + b, together with its spelling in the text form. The spelling is
kept because different spellings can share both pairs: ``parity-paper`` and
``even(-1,2)/odd(1,1)`` assign the same types but are distinct models.

Models serialize to a single line, grammar::

    gap<=<c|n/2|inf>; type=<parity-paper|affine(a,b)|even(a,b)/odd(a,b)>; bcount=<min..max|*>

e.g. ``gap<=1; type=parity-paper; bcount=*`` for the canonical model.

Type histograms come from the closed-form gap/B-count census (n sequences
with gap 0, and (n - g) * C(g - 1, b - 2) with gap g >= 1 and b B's), so
they accept any length n >= 1. ``valid_set`` scans all 2**n codes, so like
``enumerate_all`` it accepts n <= MAX_N = 30; ``valid_codes`` generates the
same codes in time proportional to their number.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidSequenceError, ModelParseError
from .sequences import BinarySequence, check_enumerable, gap_statistics


class Threshold(NamedTuple):
    """Gap ceiling ``halves * n // 2 + offset`` at length n. ``name`` is the
    wire spelling ``format_model`` prints; build instances through
    ``Constant``, ``HalfFloor`` or ``Unbounded`` so it is normalised."""

    halves: int
    offset: int
    name: str

    def limit(self, n: int) -> int:
        return self.halves * n // 2 + self.offset


def Constant(c: int) -> Threshold:
    """Fixed ceiling: valid sequences satisfy gap <= c."""
    if c < 0:
        raise ValueError("gap threshold must be >= 0")
    return Threshold(0, c, str(c))


def HalfFloor() -> Threshold:
    """Length-relative ceiling gap <= floor(n/2)."""
    return Threshold(1, 0, "n/2")


def Unbounded() -> Threshold:
    """gap <= n - 1, the largest gap a length-n sequence can have."""
    return Threshold(2, -1, "inf")


class TypeMap(NamedTuple):
    """k = a*gap + b, with (a, b) = ``even`` for even n and ``odd`` for odd n.

    ``name`` is the wire spelling ``format_model`` prints; build instances
    through ``ParityFlip``, ``Affine`` or ``EvenOddAffine`` so it is normalised.
    """

    even: tuple[int, int]
    odd: tuple[int, int]
    name: str

    def pair(self, n: int) -> tuple[int, int]:
        return self.even if n % 2 == 0 else self.odd


def ParityFlip() -> TypeMap:
    """k = 2 - gap for even n, gap + 1 for odd n (wire name ``parity-paper``)."""
    return TypeMap((-1, 2), (1, 1), "parity-paper")


def Affine(a: int, b: int) -> TypeMap:
    """k = a*gap + b for every length."""
    return TypeMap((a, b), (a, b), f"affine({a},{b})")


def EvenOddAffine(even: tuple[int, int], odd: tuple[int, int]) -> TypeMap:
    """Separate affine pairs (a, b) for even and odd lengths."""
    (ea, eb), (oa, ob) = even, odd
    return TypeMap((ea, eb), (oa, ob), f"even({ea},{eb})/odd({oa},{ob})")


class _ModelSpec(NamedTuple):
    gap_threshold: Threshold
    type_map: TypeMap
    b_count: tuple[int, int] | None = None


class ModelSpec(_ModelSpec):
    __slots__ = ()

    def __new__(
        cls, gap_threshold: Threshold, type_map: TypeMap, b_count: tuple[int, int] | None = None
    ) -> ModelSpec:
        if b_count is not None:
            lo, hi = b_count
            if lo < 1 or lo > hi:
                raise ValueError("b-count bounds need 1 <= min <= max")
        return super().__new__(cls, gap_threshold, type_map, b_count)

    @classmethod
    def _make(cls, fields: Iterable) -> ModelSpec:
        # ``_replace`` builds through ``_make``, which would skip the checks.
        return cls(*fields)


class _TypeHistogram(NamedTuple):
    counts: dict[int, int]
    n: int


class TypeHistogram(_TypeHistogram):
    """Per-type counts of the valid sequences at one length.

    Only realized types are stored (every count >= 1); keys ascend. The total
    of the counts equals the size of the model's valid set at this length.
    """

    __slots__ = ()

    def __new__(cls, counts: dict[int, int], n: int) -> TypeHistogram:
        if any(c < 1 for c in counts.values()):
            raise ValueError("histogram stores only nonzero counts")
        return super().__new__(cls, counts, n)

    @classmethod
    def _make(cls, fields: Iterable) -> TypeHistogram:
        # ``_replace`` builds through ``_make``, which would skip the checks.
        return cls(*fields)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def canonical_model() -> ModelSpec:
    """Gap <= 1, parity-dependent type map, no bound on the number of B's."""
    return ModelSpec(Constant(1), ParityFlip())


def type_for_gap(model: ModelSpec, n: int, gap: int) -> int:
    """Type index the model assigns to any length-n sequence with this gap.

    Total over all gaps; validity is not consulted, so callers can tabulate
    the would-be type of excluded sequences as well.
    """
    a, b = model.type_map.pair(n)
    return a * gap + b


def is_valid(model: ModelSpec, seq: BinarySequence) -> bool:
    """True iff seq has >= 1 B, its gap is within the resolved threshold, and
    its B-count satisfies the model's bound (when one is set)."""
    stats = gap_statistics(seq)
    lo, hi = model.b_count or (1, seq.n)
    return (
        stats is not None
        and stats.gap <= model.gap_threshold.limit(seq.n)
        and lo <= seq.b_count <= hi
    )


def type_of(model: ModelSpec, seq: BinarySequence) -> int:
    """Type index of a valid sequence; raises InvalidSequenceError otherwise."""
    if not is_valid(model, seq):
        raise InvalidSequenceError(f"{seq} is not valid under {format_model(model)}")
    stats = gap_statistics(seq)
    assert stats is not None
    return type_for_gap(model, seq.n, stats.gap)


def valid_set(model: ModelSpec, n: int) -> list[BinarySequence]:
    """All valid length-n sequences in lexicographic order, found by scanning
    the full 2**n space."""
    check_enumerable(n)
    limit = model.gap_threshold.limit(n)
    lo, hi = model.b_count or (1, n)
    return [
        BinarySequence(n, code)
        for code in range(1, 1 << n)
        if code.bit_length() - (code & -code).bit_length() <= limit
        and lo <= code.bit_count() <= hi
    ]


def valid_codes(model: ModelSpec, n: int) -> Iterator[int]:
    """Codes of the valid length-n sequences, ascending (so in lexicographic
    order), built from the first B rather than found by a scan.

    For each highest set bit h, the other B's lie in the ``min(h, limit)``
    bits just below it, so only codes within the gap threshold are visited;
    runs of inner bits outside the B-count window are stepped over whole.
    Does no length check: callers that take n from outside bound it first
    (``check_enumerable``).
    """
    limit = model.gap_threshold.limit(n)
    lo, hi = model.b_count or (1, n)
    for h in range(n):
        top, shift = 1 << h, max(h - limit, 0)
        m, end = 0, 1 << min(h, limit)
        while m < end:
            count = m.bit_count() + 1
            if count > hi:
                m += m & -m  # codes before the carry only add B's
            elif count < lo:
                m |= m + 1  # first later code with more B's than m
            else:
                yield top | (m << shift)
                m += 1


@lru_cache(maxsize=None)
def _gap_weights(n: int, b_count: tuple[int, int] | None) -> tuple[int, ...]:
    # Entry g (0 <= g < n) counts the length-n sequences with gap g whose
    # B-count lies in the window (any B-count when None). Closed-form census:
    # a gap-0 sequence is one B at one of n places; a gap-g sequence has its
    # outer B's at one of n - g places and g - 1 free inner symbols, so
    # (n - g) * C(g - 1, b - 2) of them carry b B's. ``row`` is Pascal's row
    # C(g - 1, 0..g - 1), carried from g to g + 1 by one pass of additions,
    # so a call costs O(n**2) additions. The memo is unbounded: a search asks
    # for every (n, window) pair of its rows thousands of times, and a bound
    # smaller than that set evicts each entry before its reuse.
    lo, hi = b_count or (1, n)
    weights = [n if lo <= 1 <= hi else 0]
    row = [1]
    for g in range(1, n):
        weights.append((n - g) * sum(row[max(lo - 2, 0) : hi - 1]))
        row = [1, *map(sum, zip(row, row[1:])), 1]
    return tuple(weights)


def type_histogram(model: ModelSpec, n: int) -> TypeHistogram:
    """Counts of valid length-n sequences per assigned type, zero counts omitted.

    Summed from the closed-form gap census without visiting any sequence,
    so any n >= 1 is accepted.
    """
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    limit = model.gap_threshold.limit(n)
    counts: dict[int, int] = {}
    for gap, weight in enumerate(_gap_weights(n, model.b_count)[: limit + 1]):
        if weight:
            k = type_for_gap(model, n, gap)
            counts[k] = counts.get(k, 0) + weight
    return TypeHistogram(dict(sorted(counts.items())), n)


def max_type_count(model: ModelSpec, n: int) -> int:
    """Number of distinct type values the model realizes at length n."""
    return len(type_histogram(model, n).counts)


def format_model(model: ModelSpec) -> str:
    """Single-line text form of a model, per the grammar in the module docstring."""
    bcount = "*" if model.b_count is None else f"{model.b_count[0]}..{model.b_count[1]}"
    return f"gap<={model.gap_threshold.name}; type={model.type_map.name}; bcount={bcount}"


_SPELLED_THRESHOLDS = {"n/2": HalfFloor(), "inf": Unbounded()}

_MODEL_RE = re.compile(
    r"^gap<=(?P<gap>\d+|n/2|inf); "
    r"type=(?P<type>parity-paper"
    r"|affine\((?P<aa>-?\d+),(?P<ab>-?\d+)\)"
    r"|even\((?P<ea>-?\d+),(?P<eb>-?\d+)\)/odd\((?P<oa>-?\d+),(?P<ob>-?\d+)\)); "
    r"bcount=(?P<bcount>\*|(?P<blo>\d+)\.\.(?P<bhi>\d+))$"
)


def parse_model(text: str) -> ModelSpec:
    """Parse the single-line model grammar; ``canonical`` is accepted as an alias."""
    if text == "canonical":
        return canonical_model()
    m = _MODEL_RE.match(text)
    if m is None:
        raise ModelParseError(f"cannot parse model text {text!r}")
    gap = m.group("gap")
    threshold = _SPELLED_THRESHOLDS.get(gap) or Constant(int(gap))
    type_map: TypeMap
    if m.group("type") == "parity-paper":
        type_map = ParityFlip()
    elif m.group("aa") is not None:
        type_map = Affine(int(m.group("aa")), int(m.group("ab")))
    else:
        type_map = EvenOddAffine(
            (int(m.group("ea")), int(m.group("eb"))),
            (int(m.group("oa")), int(m.group("ob"))),
        )
    b_count = None
    if m.group("bcount") != "*":
        b_count = (int(m.group("blo")), int(m.group("bhi")))
    try:
        return ModelSpec(threshold, type_map, b_count)
    except ValueError as exc:
        raise ModelParseError(str(exc)) from exc
