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
with gap 0, and (n - g) * C(g - 1, b - 2) with gap g >= 1 and b B's). One
generator, ``_valid_weights``, yields it up to the gap limit, with no memo,
so any n >= 1 is accepted.
``valid_set`` visits only the valid codes, in time proportional to its
output; like ``enumerate_all`` it accepts n <= MAX_N = 30, to bound its list.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidSequenceError, ModelParseError
from .sequences import BinarySequence, _Checked, _read_int, check_enumerable, gap_statistics


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


def _check_window(b_count: tuple[int, int] | None) -> None:
    lo, hi = b_count or (1, 1)
    if lo < 1 or lo > hi:
        raise ValueError("b-count bounds need 1 <= min <= max")


class ModelSpec(
    _Checked, namedtuple("ModelSpec", "gap_threshold type_map b_count", defaults=(None,))
):
    __slots__ = ()

    def __new__(
        cls, gap_threshold: Threshold, type_map: TypeMap, b_count: tuple[int, int] | None = None
    ) -> ModelSpec:
        _check_window(b_count)
        return super().__new__(cls, gap_threshold, type_map, b_count)


class TypeHistogram(_Checked, namedtuple("TypeHistogram", "counts n")):
    """Per-type counts of the valid sequences at one length.

    Only realized types are stored (every count >= 1); keys ascend. The total
    of the counts equals the size of the model's valid set at this length.
    """

    __slots__ = ()

    def __new__(cls, counts: dict[int, int], n: int) -> TypeHistogram:
        if any(c < 1 for c in counts.values()):
            raise ValueError("histogram stores only nonzero counts")
        return super().__new__(cls, counts, n)

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


def _bounds(threshold: Threshold, b_count: tuple[int, int] | None, n: int) -> tuple[int, int, int]:
    # Length n's validity rule: gap <= limit (at most n - 1) and lo..hi B's.
    lo, hi = b_count or (1, n)
    return min(threshold.limit(n), n - 1), lo, hi


def is_valid(model: ModelSpec, seq: BinarySequence) -> bool:
    """True iff seq has >= 1 B, its gap is within the resolved threshold, and
    its B-count satisfies the model's bound (when one is set)."""
    stats = gap_statistics(seq)
    limit, lo, hi = _bounds(model.gap_threshold, model.b_count, seq.n)
    return stats is not None and stats.gap <= limit and lo <= seq.b_count <= hi


def type_of(model: ModelSpec, seq: BinarySequence) -> int:
    """Type index of a valid sequence; raises InvalidSequenceError otherwise."""
    if not is_valid(model, seq):
        raise InvalidSequenceError(f"{seq} is not valid under {format_model(model)}")
    return type_for_gap(model, seq.n, gap_statistics(seq).gap)


def valid_set(model: ModelSpec, n: int) -> list[BinarySequence]:
    """All valid length-n sequences in lexicographic order (ascending code).

    For each highest B at bit h, the other B's lie in the ``min(h, limit)``
    bits just below it, so only codes within the gap threshold are visited;
    runs of inner bits outside the B-count window are stepped over whole.
    """
    check_enumerable(n)
    limit, lo, hi = _bounds(model.gap_threshold, model.b_count, n)
    if limit < 0:
        return []
    return [
        BinarySequence(n, 1 << h | m << max(h - limit, 0))
        for h in range(n)
        for m in _bit_count_window(min(h, limit), lo - 1, hi - 1)
    ]


def _bit_count_window(bits: int, lo: int, hi: int) -> Iterator[int]:
    # The m < 2**bits with lo <= m.bit_count() <= hi, ascending: every m when
    # the window holds 0..bits, none when hi < 0. Otherwise runs of m outside
    # the window are stepped over whole.
    if lo <= 0 and hi >= bits:
        yield from range(1 << bits)
        return
    m, end = 0, 1 << bits if hi >= 0 else 0
    while m < end:
        count = m.bit_count()
        if count > hi:
            m += m & -m  # values before the carry only add set bits
        elif count < lo:
            m |= m + 1  # first later value with more set bits than m
        else:
            yield m
            m += 1


def _valid_weights(threshold: Threshold, b_count: tuple[int, int] | None, n: int) -> Iterator[int]:
    # The census: entry g (0 <= g <= limit, g < n) counts the length-n
    # sequences with gap g and a B-count in the window (any when None), so the
    # entries sum to the valid set's size: n at g = 0 (one B, n places) and
    # (n - g) * s at g >= 1 (outer B's at n - g places), where s sums
    # C(g - 1, j) over the inner B-counts j = a..b, the window's less two.
    # Pascal's rule carries s to g + 1 by dropping out = C(g - 1, b) and
    # adding into = C(g - 1, a - 1); both are carried too, by
    # C(m + 1, j) = C(m, j) * (m + 1) // (m + 1 - j) from C(j, j) = 1 (0 below
    # that), so every gap costs a few big-int steps whatever the window.
    limit, lo, hi = _bounds(threshold, b_count, n)
    if limit < 0:
        return
    a, b = max(lo - 2, 0), hi - 2
    yield n if lo <= 1 <= hi else 0
    s, out, into = int(a == 0 <= b), int(b == 0), int(a == 1)
    for g in range(1, limit + 1):
        yield (n - g) * s
        if b >= 0:
            s = 2 * s - out + into
            out = out * g // (g - b) if g > b else int(g == b)
            into = into * g // (g - a + 1) if g >= a else int(g == a - 1)


def _type_counts(weights: Iterable[int], pair: tuple[int, int]) -> dict[int, int]:
    # Census entries (entry g for gap g) summed per type k = a*gap + b under
    # pair (a, b), zero counts omitted.
    a, b = pair
    counts: dict[int, int] = {}
    for gap, weight in enumerate(weights):
        if weight:
            k = a * gap + b
            counts[k] = counts.get(k, 0) + weight
    return counts


def type_histogram(model: ModelSpec, n: int) -> TypeHistogram:
    """Counts of valid length-n sequences per assigned type, zero counts omitted.

    Summed from the census entries ``_valid_weights`` reads, without
    visiting any sequence, so any n >= 1 is accepted.
    """
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    weights = _valid_weights(model.gap_threshold, model.b_count, n)
    counts = _type_counts(weights, model.type_map.pair(n))
    return TypeHistogram(dict(sorted(counts.items())), n)


def max_type_count(model: ModelSpec, n: int) -> int:
    """Number of distinct type values the model realizes at length n."""
    return len(type_histogram(model, n).counts)


def format_model(model: ModelSpec) -> str:
    """Single-line text form of a model, per the grammar in the module docstring."""
    head, tail = _text_around_type(model.gap_threshold, model.b_count)
    return head + model.type_map.name + tail


def _text_around_type(threshold: Threshold, b_count: tuple[int, int] | None) -> tuple[str, str]:
    # The text form before and after the type-map name, which type maps
    # under one threshold and B-count option share.
    bcount = "*" if b_count is None else f"{b_count[0]}..{b_count[1]}"
    return f"gap<={threshold.name}; type=", f"; bcount={bcount}"


_SPELLED_THRESHOLDS = {"n/2": HalfFloor(), "inf": Unbounded()}

_MODEL_RE = re.compile(
    r"gap<=(?P<gap>\d+|n/2|inf); "
    r"type=(?P<type>parity-paper"
    r"|affine\((?P<aa>-?\d+),(?P<ab>-?\d+)\)"
    r"|even\((?P<ea>-?\d+),(?P<eb>-?\d+)\)/odd\((?P<oa>-?\d+),(?P<ob>-?\d+)\)); "
    r"bcount=(?P<bcount>\*|(?P<blo>\d+)\.\.(?P<bhi>\d+))",
    re.ASCII,
)


def parse_model(text: str) -> ModelSpec:
    """Parse the single-line model grammar; ``canonical`` is accepted as an alias."""
    if text == "canonical":
        return canonical_model()
    m = _MODEL_RE.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        gap = m.group("gap")
        threshold = _SPELLED_THRESHOLDS.get(gap) or Constant(_read_int(gap))
        type_map: TypeMap
        if m.group("type") == "parity-paper":
            type_map = ParityFlip()
        elif m.group("aa") is not None:
            type_map = Affine(*map(_read_int, m.group("aa", "ab")))
        else:
            ea, eb, oa, ob = map(_read_int, m.group("ea", "eb", "oa", "ob"))
            type_map = EvenOddAffine((ea, eb), (oa, ob))
        if max(map(abs, type_map.even + type_map.odd)) >= 10**18:
            raise ValueError(text)  # keeps every type index a*gap + b printable
        b_count = None
        if m.group("bcount") != "*":
            b_count = (_read_int(m.group("blo")), _read_int(m.group("bhi")))
    except ValueError:
        raise ModelParseError(f"cannot parse model text {text!r}") from None
    try:
        return ModelSpec(threshold, type_map, b_count)
    except ValueError as exc:
        raise ModelParseError(str(exc)) from exc
