"""The enumerate listing: one row per length-n sequence, or per valid one.

``blocks`` checks everything that can fail, then returns an iterator over
blocks of whole rows, so the table is never held in memory. Only ``gaptri
enumerate`` imports this module; no other command compiles it.
"""

from __future__ import annotations

from typing import Iterator

from .cli import _line, _widths
from .model import (
    ModelSpec,
    Unbounded,
    _bit_count_window,
    _bounds,
    _valid_weights,
    type_for_gap,
)
from .sequences import _SYMBOLS, check_enumerable

#: Most bytes in one block; rows are never cut.
_CHUNK_BYTES = 1 << 16

#: Most bytes a listing may print; a larger one is refused before its first row.
_LISTING_BYTES = 1 << 32


def _threshold_text(spec: ModelSpec, n: int) -> str:
    threshold = spec.gap_threshold
    return "inf" if threshold == Unbounded() else str(threshold.limit(n))


def _k_header(spec: ModelSpec, n: int) -> str:
    if spec.type_map.name == "parity-paper":
        return "k=2-gap" if n % 2 == 0 else "k=gap+1"
    a, b = spec.type_map.pair(n)
    return f"k={a}*gap{b:+d}"


def blocks(n: int, model: ModelSpec | None, valid_only: bool, fmt: str) -> Iterator[str]:
    # Everything that can fail is checked here, before the first row is made;
    # a valid-only listing needs a model.
    check_enumerable(n)
    headers = ["sequence", "has_B"]
    show_bcount = model is not None and model.b_count is not None
    if show_bcount:
        headers.append("#B")
    headers += ["first_B", "last_B", "gap"]
    if model is not None:
        headers += [f"gap<={_threshold_text(model, n)}?", _k_header(model, n), "valid?"]
        limit, lo, hi = _bounds(model.gap_threshold, model.b_count, n)
    # The listed rows have gap <= keep_gap and keep_lo..keep_hi B's; the full
    # listing's window admits every row.
    keep_gap, keep_lo, keep_hi = (limit, lo, hi) if valid_only else (n - 1, 0, n)

    def cells(high: int, low: int, count: int) -> list[str]:
        # The cells after the sequence depend only on the bit lengths of the
        # code and of its lowest set bit, and on its bit count (high = 0 is
        # the row with no B).
        if high == 0:
            row = ["No"] + (["0"] if show_bcount else []) + ["--", "--", "--"]
            return row + (["--", "--", "No"] if model is not None else [])
        gap = high - low
        row = ["Yes"] + ([str(count)] if show_bcount else [])
        row += [str(n - high + 1), str(n - low + 1), str(gap)]
        if model is not None:
            valid = gap <= limit and lo <= count <= hi
            row += [
                "Yes" if gap <= limit else "No",
                str(type_for_gap(model, n, gap)),
                "Yes" if valid else "No",
            ]
        return row

    # Column widths before any row: a row's cells have the widths of the
    # row with the same gap and B-count whose last B is at position n, so one
    # such row per (gap, B-count) pair that the listing contains suffices.
    samples = [] if valid_only else [(0, 0, 0)]
    for gap in range(n):
        for b in range(2 if gap else 1, gap + 2):
            if gap <= keep_gap and keep_lo <= b <= keep_hi:
                samples.append((gap + 1, 1, b))
    widths = _widths(headers, (["R" * n] + cells(*sample) for sample in samples))
    # No line is longer than its padded cells, separators and newline.
    line_bytes = len(_line(["x" * w for w in widths], widths, "table"))
    rows = sum(_valid_weights(model.gap_threshold, model.b_count, n)) if valid_only else 1 << n
    if (rows + 1) * line_bytes > _LISTING_BYTES:
        raise ValueError(
            f"{rows} rows could exceed {_LISTING_BYTES} bytes; list fewer with --valid-only"
        )
    # Most low bits a block may span: 2**most lines fit in one write.
    most = max(_CHUNK_BYTES // line_bytes, 1).bit_length() - 1

    def tail(high: int, low: int, count: int) -> str:
        # The line after its sequence: an empty first cell pads the sequence.
        return _line(["", *cells(high, low, count)], [widths[0] - n, *widths[1:]], fmt)

    def made() -> Iterator[str]:
        # A block is the rows top | (mh << bits | ml) << shift of one mh: their head
        # joined over the ml suffixes, made once per (h, key = B's in top | mh).
        # No block is empty: mh's window keeps key >= keep_lo - bits, so a
        # block with no ml rows (bits = 0 or key = keep_hi) has key in the
        # window and holds its first row. Each block is written as it is
        # made; stdout's own buffer batches the small ones.
        yield _line(headers, widths, fmt)
        if not valid_only:
            yield "R" * n + tail(0, 0, 0)
        for h in range(n):
            top = 1 << h
            w, shift = min(h, keep_gap), max(h - keep_gap, 0)
            bits = min(most, w)
            pad = "R" * shift
            tables: dict[int, list[str]] = {}
            for mh in _bit_count_window(w - bits, keep_lo - 1 - bits, keep_hi - 1):
                key = mh.bit_count() + 1 if show_bcount else 1
                table = tables.get(key)
                if table is None:
                    # The text after the low bits, by the bit length of
                    # ml's lowest set bit and ml's bit count.
                    ends = {
                        (low, count): pad + tail(h + 1, low + shift, key + count)
                        for count in range(max(keep_lo - key, 1), min(keep_hi - key, bits) + 1)
                        for low in range(1, bits + 2 - count)
                    }
                    table = tables[key] = [
                        format(ml | 1 << bits, "b")[1:].translate(_SYMBOLS)
                        + ends[(ml & -ml).bit_length(), ml.bit_count()]
                        for ml in _bit_count_window(bits, keep_lo - key, keep_hi - key)
                        if ml
                    ]
                head = "R" * (n - 1 - h) + format(mh | 1 << (w - bits), "b").translate(_SYMBOLS)
                block = head + head.join(table) if table else ""
                if keep_lo <= key <= keep_hi:
                    code = top | mh << (bits + shift)
                    first = tail(h + 1, (code & -code).bit_length(), code.bit_count())
                    block = head + "R" * (bits + shift) + first + block
                yield block

    return made()
