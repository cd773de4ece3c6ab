"""Binary sequences over the two-symbol alphabet {R, B}.

A length-n sequence is packed into an integer code in [0, 2**n): position i
(1-based, reading left to right) lives at bit (n - i), with B = 1 and R = 0.
Sweeping codes upward therefore walks the sequences in lexicographic order
with R < B, which is the ordering every stream in this package guarantees.
All reported positions (first_b, last_b) are 1-based.

No command calls ``enumerate_all``, ``gap_statistics`` or ``count_by_gap``:
they are the per-sequence oracles of the tests, and ``perfbench``'s tracer
wraps them. The first and last visit all 2**n codes, so they accept only
lengths 1..MAX_N = 30 (``check_enumerable``).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from .errors import InvalidLengthError

#: Hard ceiling for exhaustive enumeration: at most 2**30 cheap iterations.
MAX_N = 30

#: A code's binary digits spelled as symbols (0 -> R, 1 -> B), via ``str.translate``.
_SYMBOLS = str.maketrans("01", "RB")


class _Checked:
    """Base of the records whose ``__new__`` checks its fields.

    ``_replace`` builds through ``_make``, which would otherwise skip the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)


class BinarySequence(_Checked, namedtuple("BinarySequence", "n code")):
    """One sequence; ``code`` packs the symbols as described in the module docstring."""

    __slots__ = ()

    def __new__(cls, n: int, code: int) -> BinarySequence:
        if n < 1:
            raise ValueError("sequence length must be >= 1")
        if not 0 <= code < (1 << n):
            raise ValueError(f"code {code} out of range for length {n}")
        return super().__new__(cls, n, code)

    @property
    def b_count(self) -> int:
        return self.code.bit_count()

    def __str__(self) -> str:
        return format(self.code, f"0{self.n}b").translate(_SYMBOLS)

    def __len__(self) -> int:
        return self.n


class GapStatistics(_Checked, namedtuple("GapStatistics", "first_b last_b gap")):
    """First and last B positions of a sequence that contains at least one B."""

    __slots__ = ()

    def __new__(cls, first_b: int, last_b: int, gap: int) -> GapStatistics:
        if not 1 <= first_b <= last_b:
            raise ValueError("need 1 <= first_b <= last_b")
        if gap != last_b - first_b:
            raise ValueError("gap must equal last_b - first_b")
        return super().__new__(cls, first_b, last_b, gap)


def _read_int(text: str) -> int:
    # The one reader of integers from outside the program: ASCII digits after
    # an optional minus sign. int() alone also takes "+", "_", spaces and
    # other scripts' digits; a number past the interpreter's int-string limit
    # raises ValueError too, so each caller refuses it under its own message.
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def gap_statistics(seq: BinarySequence) -> GapStatistics | None:
    """Positions of the first/last B and their distance; None when there is no B."""
    if seq.code == 0:
        return None
    # Highest set bit -> first (leftmost) B; lowest set bit -> last B.
    first_b = seq.n - seq.code.bit_length() + 1
    last_b = seq.n - ((seq.code & -seq.code).bit_length() - 1)
    return GapStatistics(first_b, last_b, last_b - first_b)


def check_enumerable(n: int) -> None:
    """Reject lengths outside 1..MAX_N before any 2**n work starts."""
    if not 1 <= n <= MAX_N:
        raise InvalidLengthError(n, MAX_N)


def enumerate_all(n: int) -> Iterator[BinarySequence]:
    """Yield all 2**n distinct length-n sequences in lexicographic order (R < B)."""
    check_enumerable(n)
    for code in range(1 << n):
        yield BinarySequence(n, code)


def count_by_gap(n: int) -> dict[int, int]:
    """Histogram {gap: count} over every length-n sequence with at least one B.

    Computed by scanning all 2**n codes, never by formula: this function is
    the ground-truth side of any closed-form cross-check. Keys are exactly
    the realized gap values, in ascending order; values sum to 2**n - 1.
    """
    check_enumerable(n)
    counts = [0] * n
    for code in range(1, 1 << n):
        counts[code.bit_length() - (code & -code).bit_length()] += 1
    return {gap: c for gap, c in enumerate(counts) if c}
