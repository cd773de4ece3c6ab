"""Command-line front door: enumerate, stats, verify, obstruct, search, ingest.

Exit codes: 0 = requested check passed, 1 = a verified mismatch, 2 = usage,
IO, or parse error. Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, Iterator

from .errors import GaptriError
from .model import (
    ModelSpec,
    Unbounded,
    _gap_weights,
    format_model,
    parse_model,
    type_for_gap,
    type_histogram,
    valid_codes,
)
from .search import default_family, result_record, run_search, witness
from .sequences import check_enumerable
from .triangle import (
    CoefficientTriangle,
    embedded_half_triangle,
    format_triangle,
    half_row_rule,
    ingest_bfile,
    parse_triangle,
)
from .verify import obstruction_record, obstruction_report, verdict_record, verify_row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaptri",
        description="Gap-constrained binary sequence models vs integer coefficient triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list sequences with gap/type columns")
    p.add_argument("-n", type=int, required=True, help="sequence length")
    p.add_argument("--model", help="model text or 'canonical'")
    p.add_argument("--valid-only", action="store_true", help="list only valid sequences")
    _add_common(p)

    p = sub.add_parser("stats", help="gap distribution over all length-n sequences")
    p.add_argument("-n", type=int, required=True, help="sequence length")
    _add_common(p)

    for name, about in (
        ("verify", "check model histograms against triangle rows"),
        ("obstruct", "type-count obstruction reports per row"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--model", default="canonical", help="model text or 'canonical'")
        _add_triangle_source(p)
        p.add_argument("--rows", help="row range a..b (default: every triangle row)")
        p.add_argument("--out", help="write one machine-readable record per row to this file")
        _add_common(p)

    p = sub.add_parser("search", help="evaluate the candidate family against a triangle")
    _add_triangle_source(p)
    p.add_argument("--rows", help="row range a..b (default: every triangle row)")
    p.add_argument("--top", type=int, default=20, help="how many ranked candidates to print")
    p.add_argument("--out", help="write every candidate's record to this file")
    _add_common(p)

    p = sub.add_parser("ingest", help="read a triangle or b-file, print canonical form")
    _add_triangle_source(p)
    p.add_argument("--out", help="write the canonical triangle text to this file")

    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
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
        chunks, code = _COMMANDS[args.command](args)
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


#: Bytes per write while streaming a listing; rows are never cut.
_CHUNK_BYTES = 1 << 16

#: Most bytes a listing may print; a larger one is refused before its first row.
_LISTING_BYTES = 1 << 32


def _cmd_enumerate(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    # Everything that can fail is checked here, before the first row is made.
    model = parse_model(args.model) if args.model else None
    if args.valid_only and model is None:
        raise ValueError("--valid-only requires --model")
    n = args.n
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

    def cells(code: int) -> list[str]:
        # Every cell after the sequence depends only on the highest and
        # lowest set bits and, when a B-count window is set, the bit count.
        if code == 0:
            row = ["No"] + (["0"] if show_bcount else []) + ["--", "--", "--"]
            return row + (["--", "--", "No"] if model is not None else [])
        high, low = code.bit_length(), (code & -code).bit_length()
        gap = high - low
        row = ["Yes"] + ([str(code.bit_count())] if show_bcount else [])
        row += [str(n - high + 1), str(n - low + 1), str(gap)]
        if model is not None:
            valid = gap <= limit and lo <= code.bit_count() <= hi
            row += [
                "Yes" if gap <= limit else "No",
                str(type_for_gap(model, n, gap)),
                "Yes" if valid else "No",
            ]
        return row

    # Column widths before any row: a row's cells have the widths of the
    # row with the same gap and B-count whose last B is at position n, so one
    # such row per (gap, B-count) pair that the listing contains suffices.
    samples = [] if args.valid_only else [0]
    for gap in range(n):
        for b in range(2 if gap else 1, gap + 2):
            if not args.valid_only or (gap <= limit and lo <= b <= hi):
                samples.append((1 << gap) | ((1 << (b - 1)) - 1))
    spelling = f"0{n}b"
    widths = _widths(
        headers, ([format(c, spelling).translate(_SYMBOLS)] + cells(c) for c in samples)
    )
    # No line is longer than its padded cells, separators and newline.
    line_bytes = sum(widths) + 2 * (len(widths) - 1) + 1
    rows = type_histogram(model, n).total if args.valid_only else 1 << n
    if (rows + 1) * line_bytes > _LISTING_BYTES:
        raise ValueError(
            f"{rows} rows could exceed {_LISTING_BYTES} bytes; list fewer with --valid-only"
        )
    codes = valid_codes(model, n) if args.valid_only else range(1 << n)

    def chunks() -> Iterator[str]:
        # The text after the sequence cell, its padding and separator
        # included, is cached by the bits it depends on: O(n**3) keys at most.
        lead = "\t" if args.format == "tsv" else " " * (widths[0] - n) + "  "
        tails: dict[tuple[int, int, int], str] = {}
        per_chunk = max(1, _CHUNK_BYTES // line_bytes)
        chunk = [_line(headers, widths, args.format)]
        for code in codes:
            key = (code.bit_length(), code & -code, code.bit_count() if show_bcount else 0)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = lead + _line(cells(code), widths[1:], args.format)
            chunk.append(format(code, spelling).translate(_SYMBOLS) + tail)
            if len(chunk) == per_chunk:
                yield "".join(chunk)
                chunk = []
        yield "".join(chunk)

    return chunks(), 0


_SYMBOLS = str.maketrans("01", "RB")


def _cmd_stats(args: argparse.Namespace) -> tuple[list[str], int]:
    check_enumerable(args.n)
    body = [[str(gap), str(count)] for gap, count in enumerate(_gap_weights(args.n, None))]
    return [_render(["gap", "count"], body, args.format)], 0


def _cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    model = parse_model(args.model)
    triangle = _load_triangle(args)
    lo, hi = _rows_range(args.rows, triangle)
    verdicts = [verify_row(model, triangle, n) for n in range(lo, hi + 1)]
    _write_out(args.out, (verdict_record(v) + "\n" for v in verdicts))
    body = []
    for v in verdicts:
        predicted = ",".join(f"{k}:{c}" for k, c in v.predicted.counts.items()) or "-"
        target = ",".join(str(e) for e in v.target)
        detail = "; ".join(
            f"k={k}: {_cell(p)} vs {_cell(t)}" for k, p, t in v.mismatch_detail
        ) or "-"
        body.append([str(v.n), "yes" if v.matches else "no", predicted, target, detail])
    text = _render(["row", "match", "predicted", "target", "detail"], body, args.format)
    return [text], 0 if all(v.matches for v in verdicts) else 1


def _cmd_obstruct(args: argparse.Namespace) -> tuple[list[str], int]:
    model = parse_model(args.model)
    triangle = _load_triangle(args)
    lo, hi = _rows_range(args.rows, triangle)
    reports = [obstruction_report(model, triangle, n) for n in range(lo, hi + 1)]
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
    lo, hi = _rows_range(args.rows, triangle)
    rows = range(lo, hi + 1)
    results = run_search(default_family(), triangle, rows)
    _write_out(args.out, (result_record(r) + "\n" for r in results))
    body = []
    for rank, result in enumerate(results[: args.top], start=1):
        matched = ",".join(str(n) for n in sorted(result.matched_rows)) or "-"
        failure = "-"
        unmatched = [n for n in rows if n not in result.matched_rows]
        if unmatched:
            failure = f"row {unmatched[0]}: " + witness(result.model, triangle, unmatched[0])
        body.append(
            [str(rank), format_model(result.model), str(result.score), matched, failure]
        )
    text = _render(["rank", "model", "score", "matched", "first_failure"], body, args.format)
    return [text], 0


def _cmd_ingest(args: argparse.Namespace) -> tuple[list[str], int]:
    triangle = _load_triangle(args)
    text = format_triangle(triangle)
    if args.out:
        _write_out(args.out, [text])
        return [], 0
    return [text], 0


def _cell(value: int | None) -> str:
    return "absent" if value is None else str(value)


def _write_out(path: str | None, lines: Iterable[str]) -> None:
    # Write beside the target, then rename over it: the target holds either
    # its old bytes or the whole new report, never a partial one. The lines
    # are written one by one, never joined into one string.
    if not path:
        return
    import tempfile  # loaded only by a command that writes a file

    folder, name = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=folder or os.curdir, prefix=f".{name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
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
        with open(args.triangle, encoding="utf-8") as handle:
            return parse_triangle(handle)
    if args.triangle is not None:
        raise ValueError("--bfile cannot be combined with --triangle")
    if args.row_rule is None:
        raise ValueError("--bfile requires --row-rule")
    rule = _parse_row_rule(args.row_rule)
    with open(args.bfile, encoding="utf-8") as handle:
        return ingest_bfile(handle, rule)


def _parse_row_rule(text: str) -> Callable[[int], int]:
    if text == "floor(n/2)+1":
        return half_row_rule
    if text.startswith("explicit:"):
        try:
            lengths = tuple(int(tok) for tok in text[len("explicit:") :].split(","))
        except ValueError:
            raise ValueError(f"bad explicit row rule {text!r}") from None
        if not lengths:
            raise ValueError("explicit row rule needs at least one length")

        def rule(n: int) -> int:
            if n > len(lengths):
                raise ValueError(f"explicit row rule covers only {len(lengths)} rows")
            return lengths[n - 1]

        return rule
    raise ValueError(f"unknown row rule {text!r}")


def _rows_range(text: str | None, triangle: CoefficientTriangle) -> tuple[int, int]:
    if text is None:
        if triangle.height == 0:
            raise ValueError("triangle has no rows")
        return 1, triangle.height
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if match is None:
        raise ValueError(f"cannot parse row range {text!r}; expected a..b")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) else lo
    if lo < 1 or hi < lo:
        raise ValueError("row range needs 1 <= a <= b")
    return lo, hi


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "obstruct": _cmd_obstruct,
    "search": _cmd_search,
    "ingest": _cmd_ingest,
}
