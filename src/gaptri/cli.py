"""Command-line front door: enumerate, stats, verify, obstruct, search, ingest.

Exit codes: 0 = requested check passed, 1 = a verified mismatch, 2 = usage,
IO, or parse error. Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterable, Iterator

from .errors import GaptriError, MissingRowError
from .model import (
    ModelSpec,
    Unbounded,
    _bit_count_window,
    _valid_weights,
    parse_model,
    type_for_gap,
)
from .search import default_family, rank_search, witness
from .sequences import _SYMBOLS, _read_int, check_enumerable
from .triangle import (
    CoefficientTriangle,
    embedded_half_triangle,
    format_triangle,
    half_row_rule,
    ingest_bfile,
    parse_triangle,
)
from .verify import _entry_text, obstruction_record, obstruction_report, verdict_record, verify_row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaptri",
        description="Gap-constrained binary sequence models vs integer coefficient triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list sequences with gap/type columns")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("-n", type=int, required=True, help="sequence length")
    p.add_argument("--model", help="model text or 'canonical'")
    p.add_argument("--valid-only", action="store_true", help="list only valid sequences")
    _add_common(p)

    p = sub.add_parser("stats", help="gap distribution over all length-n sequences")
    p.set_defaults(run=_cmd_stats)
    p.add_argument("-n", type=int, required=True, help="sequence length")
    _add_common(p)

    for name, about, command in (
        ("verify", "check model histograms against triangle rows", _cmd_verify),
        ("obstruct", "type-count obstruction reports per row", _cmd_obstruct),
    ):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=command)
        p.add_argument("--model", default="canonical", help="model text or 'canonical'")
        _add_triangle_source(p)
        p.add_argument("--rows", help="row range a..b (default: every triangle row)")
        p.add_argument("--out", help="write one machine-readable record per row to this file")
        _add_common(p)

    p = sub.add_parser("search", help="evaluate the candidate family against a triangle")
    p.set_defaults(run=_cmd_search)
    _add_triangle_source(p)
    p.add_argument("--rows", help="row range a..b (default: every triangle row)")
    p.add_argument("--top", type=int, default=20, help="how many ranked candidates to print")
    p.add_argument("--out", help="write every candidate's record to this file")
    _add_common(p)

    p = sub.add_parser("ingest", help="read a triangle or b-file, print canonical form")
    p.set_defaults(run=_cmd_ingest)
    _add_triangle_source(p)
    p.add_argument("--out", help="write the canonical triangle text to this file")

    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.register("type", int, _read_int)  # -n and --top: ASCII digits only
    p.add_argument("--format", choices=("table", "tsv"), default="table")


def _add_triangle_source(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--triangle",
        help="triangle file path, or 'embedded' for the bundled triangle (the default); "
        "refused while a file named 'embedded' is in the working directory, "
        "which './embedded' reads",
    )
    p.add_argument("--bfile", help="OEIS b-file path (requires --row-rule)")
    p.add_argument("--row-rule", help="'floor(n/2)+1' or 'explicit:l1,l2,...'")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        chunks, code = args.run(args)
    except (GaptriError, ValueError, OSError) as exc:
        print(f"gaptri: error: {exc}", file=sys.stderr)
        return 2
    # Commands validate everything before they return, so an error above
    # leaves stdout empty; what is written here is the report itself.
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`gaptri enumerate ... | head`): end
        # quietly, with stdout on devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def run() -> None:
    raise SystemExit(main())


def _widths(headers: list[str], rows: Iterable[list[str]]) -> list[int]:
    widths = [len(h) for h in headers]
    for cells in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, cells)]
    return widths


def _line(cells: list[str], widths: list[int], fmt: str) -> str:
    if fmt == "tsv":
        return "\t".join(cells) + "\n"
    return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip() + "\n"


def _render(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    widths = _widths(headers, rows)
    return "".join(_line(cells, widths, fmt) for cells in [headers] + rows)


def _threshold_text(model: ModelSpec, n: int) -> str:
    threshold = model.gap_threshold
    return "inf" if threshold == Unbounded() else str(threshold.limit(n))


def _k_header(model: ModelSpec, n: int) -> str:
    if model.type_map.name == "parity-paper":
        return "k=2-gap" if n % 2 == 0 else "k=gap+1"
    a, b = model.type_map.pair(n)
    return f"k={a}*gap{b:+d}"


#: Most bytes in one block; rows are never cut.
_CHUNK_BYTES = 1 << 16

#: Most bytes a listing may print; a larger one is refused before its first row.
_LISTING_BYTES = 1 << 32


def _cmd_enumerate(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    # Everything that can fail is checked here, before the first row is made.
    model = parse_model(args.model) if args.model else None
    if args.valid_only and model is None:
        raise ValueError("--valid-only requires --model")
    n, fmt = args.n, args.format
    check_enumerable(n)
    headers = ["sequence", "has_B"]
    show_bcount = model is not None and model.b_count is not None
    if show_bcount:
        headers.append("#B")
    headers += ["first_B", "last_B", "gap"]
    if model is not None:
        headers += [f"gap<={_threshold_text(model, n)}?", _k_header(model, n), "valid?"]
        limit = model.gap_threshold.limit(n)
        lo, hi = model.b_count or (1, n)
    # The listed rows have gap <= keep_gap and keep_lo..keep_hi B's; the full
    # listing's window admits every row.
    keep_gap, keep_lo, keep_hi = (limit, lo, hi) if args.valid_only else (n - 1, 0, n)

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
    samples = [] if args.valid_only else [(0, 0, 0)]
    for gap in range(n):
        for b in range(2 if gap else 1, gap + 2):
            if gap <= keep_gap and keep_lo <= b <= keep_hi:
                samples.append((gap + 1, 1, b))
    widths = _widths(headers, (["R" * n] + cells(*sample) for sample in samples))
    # No line is longer than its padded cells, separators and newline.
    line_bytes = sum(widths) + 2 * (len(widths) - 1) + 1
    rows = sum(_valid_weights(model.gap_threshold, model.b_count, n)) if args.valid_only else 1 << n
    if (rows + 1) * line_bytes > _LISTING_BYTES:
        raise ValueError(
            f"{rows} rows could exceed {_LISTING_BYTES} bytes; list fewer with --valid-only"
        )
    lead = "\t" if fmt == "tsv" else " " * (widths[0] - n) + "  "
    # Most low bits a block may span: 2**most lines fit in one write.
    most = max(_CHUNK_BYTES // line_bytes, 1).bit_length() - 1

    def tail(high: int, low: int, count: int) -> str:
        return lead + _line(cells(high, low, count), widths[1:], fmt)

    def blocks() -> Iterator[str]:
        # A block is the rows top | (mh << bits | ml) << shift of one mh: their head
        # joined over the ml suffixes, made once per (h, key = B's in top | mh).
        # No block is empty: mh's window keeps key >= keep_lo - bits, so a
        # block with no ml rows (bits = 0 or key = keep_hi) has key in the
        # window and holds its first row. Each block is written as it is
        # made; stdout's own buffer batches the small ones.
        yield _line(headers, widths, fmt)
        if not args.valid_only:
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

    return blocks(), 0


def _cmd_stats(args: argparse.Namespace) -> tuple[list[str], int]:
    check_enumerable(args.n)
    body = [[str(g), str(c)] for g, c in enumerate(_valid_weights(Unbounded(), None, args.n))]
    return [_render(["gap", "count"], body, args.format)], 0


def _cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    model = parse_model(args.model)
    triangle = _load_triangle(args)
    verdicts = [verify_row(model, triangle, n) for n in _rows_range(args.rows, triangle)]
    _write_out(args.out, (verdict_record(v) + "\n" for v in verdicts))
    body = []
    for v in verdicts:
        predicted = ",".join(f"{k}:{_entry_text(c)}" for k, c in v.predicted.counts.items()) or "-"
        target = ",".join(str(e) for e in v.target)
        detail = "; ".join(
            f"k={k}: {_entry_text(p)} vs {_entry_text(t)}" for k, p, t in v.mismatch_detail
        ) or "-"
        body.append([str(v.n), "yes" if v.matches else "no", predicted, target, detail])
    text = _render(["row", "match", "predicted", "target", "detail"], body, args.format)
    return [text], 0 if all(v.matches for v in verdicts) else 1


def _cmd_obstruct(args: argparse.Namespace) -> tuple[list[str], int]:
    model = parse_model(args.model)
    triangle = _load_triangle(args)
    reports = [obstruction_report(model, triangle, n) for n in _rows_range(args.rows, triangle)]
    _write_out(args.out, (obstruction_record(r) + "\n" for r in reports))
    body = [
        [str(r.n), str(r.provided_types), str(r.required_types), "yes" if r.obstructed else "no"]
        for r in reports
    ]
    return [_render(["row", "provided", "required", "obstructed"], body, args.format)], 0


def _cmd_search(args: argparse.Namespace) -> tuple[list[str], int]:
    if args.top < 0:
        raise ValueError("--top must be >= 0")
    triangle = _load_triangle(args)
    rows = _rows_range(args.rows, triangle)
    lines, ranked = rank_search(default_family(), triangle, rows)
    _write_out(args.out, lines)
    body = []
    for rank, line in enumerate(lines[: args.top]):
        model, score, matched = line[:-1].split("\t")
        result = ranked(rank)  # for the witness
        failure = "-"
        unmatched = [n for n in rows if n not in result.matched_rows]
        if unmatched:
            failure = f"row {unmatched[0]}: " + witness(result.model, triangle, unmatched[0])
        body.append([str(rank + 1), model, score, matched, failure])
    text = _render(["rank", "model", "score", "matched", "first_failure"], body, args.format)
    return [text], 0


def _cmd_ingest(args: argparse.Namespace) -> tuple[list[str], int]:
    text = format_triangle(_load_triangle(args))
    _write_out(args.out, [text])
    return [text] if args.out is None else [], 0


def _write_out(path: str | None, lines: Iterable[str]) -> None:
    # Write beside the target, then rename over it: the target holds either
    # its old bytes or the whole new report, never a partial one. The lines
    # are written one by one, never joined into one string.
    if path is None:
        return
    import tempfile  # loaded only by a command that writes a file

    folder, name = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=folder or os.curdir, prefix=f".{name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.lexists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # Name the path given, not the temporary file beside it, whose
            # name changes from run to run.
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_triangle(args: argparse.Namespace) -> CoefficientTriangle:
    # --triangle defaults to None, not "embedded", so that naming it beside
    # --bfile can be refused rather than silently dropped.
    if args.bfile is None:
        if args.row_rule is not None:
            raise ValueError("--row-rule requires --bfile")
        if args.triangle == "embedded" and os.path.exists(args.triangle):
            raise ValueError(
                "--triangle embedded names the bundled triangle, but a file 'embedded' "
                "is in the working directory; pass --triangle ./embedded to read the file"
            )
        if args.triangle in (None, "embedded"):
            return embedded_half_triangle()
        with open(args.triangle, encoding="utf-8-sig") as handle:
            return parse_triangle(handle)
    if args.triangle is not None:
        raise ValueError("--bfile cannot be combined with --triangle")
    if args.row_rule is None:
        raise ValueError("--bfile requires --row-rule")
    rule = _parse_row_rule(args.row_rule)
    with open(args.bfile, encoding="utf-8-sig") as handle:
        return ingest_bfile(handle, rule)


def _parse_row_rule(text: str) -> Callable[[int], int]:
    if text == "floor(n/2)+1":
        return half_row_rule
    if text.startswith("explicit:"):
        try:
            lengths = tuple(map(_read_int, text[len("explicit:") :].split(",")))
        except ValueError:
            raise ValueError(f"bad explicit row rule {text!r}") from None

        def rule(n: int) -> int:
            if n > len(lengths):
                raise ValueError(f"explicit row rule covers only {len(lengths)} rows")
            return lengths[n - 1]

        return rule
    raise ValueError(f"unknown row rule {text!r}")


def _rows_range(text: str | None, triangle: CoefficientTriangle) -> range:
    if text is None:
        if triangle.height == 0:
            raise ValueError("triangle has no rows")
        return range(1, triangle.height + 1)
    first, dots, last = text.partition("..")
    try:
        lo, hi = map(_read_int, (first, last if dots else first))
    except ValueError:
        raise ValueError(f"cannot parse row range {text!r}; expected a..b") from None
    if lo < 1 or hi < lo:
        raise ValueError("row range needs 1 <= a <= b")
    if hi > triangle.height:
        # The first missing row, refused before any row is worked on.
        raise MissingRowError(max(lo, triangle.height + 1))
    return range(lo, hi + 1)
