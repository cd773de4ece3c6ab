"""Target coefficient triangles: embedded order-1/2 rows plus file ingestion.

Two text encodings are understood.

Native triangle format
    One row per line, single-space-separated decimal integers, line i holding
    row n = i. Lines starting with ``#`` are comments; blank lines and
    surrounding whitespace are tolerated on input. Serialization is canonical:
    rows only, no comments, one trailing newline (empty triangle -> empty
    text), so serialize -> parse -> serialize is byte-stable.

OEIS b-file format
    Each non-comment line is ``<index> <value>`` with 1-based contiguous
    indices; ``#`` starts a comment. The linear term list is re-chunked into
    rows by an explicit row-length rule (for A223168 the rule is
    n -> floor(n/2) + 1, read off the triangle's shape). Row-length rules for
    A223169..A223172 are not published here, so the ingester ships no default
    for those ids: callers must always pass the rule.

The triangle is stored ragged, with no zero padding: an entry beyond the end
of its row is absent rather than 0 (``verify_row`` gives None, printed as
"absent"), because the printed table leaves those cells blank and the
obstruction argument counts nonzero entries.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .errors import (
    IndexGapError,
    MissingRowError,
    TriangleParseError,
    TruncatedRowError,
)


class _CoefficientTriangle(NamedTuple):
    order_label: str
    rows: tuple[tuple[int, ...], ...]


class CoefficientTriangle(_CoefficientTriangle):
    """Ragged integer triangle; rows index n >= 1, columns k >= 1.

    ``order_label`` is only a tag (e.g. "1/2"); no analytic structure is
    attached to it. Every stored entry is >= 1 and row lengths never decrease.
    """

    __slots__ = ()

    def __new__(cls, order_label: str, rows: tuple[tuple[int, ...], ...]) -> CoefficientTriangle:
        previous = 0
        for n, row in enumerate(rows, start=1):
            if len(row) < previous:
                raise ValueError(f"row {n} is shorter than row {n - 1}")
            if any(entry < 1 for entry in row):
                raise ValueError(f"row {n} contains an entry < 1")
            previous = len(row)
        return super().__new__(cls, order_label, rows)

    @classmethod
    def _make(cls, fields: Iterable) -> CoefficientTriangle:
        # ``_replace`` builds through ``_make``, which would skip the checks.
        return cls(*fields)

    @property
    def height(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= len(self.rows):
            raise MissingRowError(n)
        return self.rows[n - 1]


_HALF_ROWS: tuple[tuple[int, ...], ...] = (
    (1,),
    (1, 2),
    (3, 2),
    (3, 12, 4),
    (15, 20, 4),
    (15, 90, 60, 8),
    (105, 210, 84, 8),
    (105, 840, 840, 224, 16),
    (945, 2520, 1512, 288, 16),
)


def embedded_half_triangle() -> CoefficientTriangle:
    """Rows n = 1..9 of the order-1/2 coefficient triangle (OEIS A223168)."""
    return CoefficientTriangle("1/2", _HALF_ROWS)


def half_row_rule(n: int) -> int:
    """Row length of the order-1/2 triangle: floor(n/2) + 1."""
    return n // 2 + 1


def required_type_count(triangle: CoefficientTriangle, n: int) -> int:
    """Distinct types row n demands: its entry count (all entries are nonzero)."""
    return len(triangle.row(n))


def row_sum(triangle: CoefficientTriangle, n: int) -> int:
    return sum(triangle.row(n))


def ingest_bfile(
    lines: Iterable[str],
    row_length_rule: Callable[[int], int],
    order_label: str = "",
) -> CoefficientTriangle:
    """Read a b-file term list and re-chunk it into triangle rows.

    Raises TriangleParseError for a malformed line, IndexGapError when term
    indices are not contiguous from 1, and TruncatedRowError(n) when the terms
    run out while row n is only partially filled. An empty stream yields an
    empty triangle.
    """
    terms: list[int] = []
    expected = 1
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise TriangleParseError(lineno, f"expected '<index> <value>', got {stripped!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise TriangleParseError(lineno, f"non-integer field in {stripped!r}") from None
        if index != expected:
            raise IndexGapError(expected, index)
        expected += 1
        terms.append(value)

    rows: list[tuple[int, ...]] = []
    position = 0
    n = 1
    while position < len(terms):
        length = row_length_rule(n)
        if length < 1:
            raise ValueError(f"row-length rule gave {length} for row {n}")
        chunk = terms[position : position + length]
        if len(chunk) < length:
            raise TruncatedRowError(n)
        rows.append(tuple(chunk))
        position += length
        n += 1
    return CoefficientTriangle(order_label, tuple(rows))


def parse_triangle(lines: Iterable[str], order_label: str = "") -> CoefficientTriangle:
    """Parse the native triangle format; comment and blank lines are skipped."""
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append(tuple(int(token) for token in stripped.split()))
        except ValueError:
            raise TriangleParseError(lineno, f"non-integer token in {stripped!r}") from None
    return CoefficientTriangle(order_label, tuple(rows))


def format_triangle(triangle: CoefficientTriangle) -> str:
    """Canonical native serialization: diffable, comment-free, newline-terminated."""
    if not triangle.rows:
        return ""
    return "\n".join(" ".join(str(entry) for entry in row) for row in triangle.rows) + "\n"
