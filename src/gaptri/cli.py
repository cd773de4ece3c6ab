"""Command-line front door: enumerate, stats, verify, obstruct, search, ingest.

Exit codes: 0 = requested check passed, 1 = a verified mismatch, 2 = usage,
IO, or parse error; an unwritable stdout is an IO error, after which the
output may be partial. Identical invocations produce byte-identical stdout.

The layers are bound as modules and called through them, so each executes
only when a command first uses it (see ``gaptri/__init__.py``). The
enumerate listing lives in ``listing.py``, imported by that command alone.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import Callable, Iterable, Iterator

from . import errors, model, search, sequences, triangle, verify


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
    p.register("type", int, sequences._read_int)  # -n and --top: ASCII digits only
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
    except (errors.GaptriError, ValueError, OSError) as exc:
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
    except OSError as exc:
        # stdout cannot take the report (`> /dev/full`, a full disk), which
        # may now be partial: an IO error, and the same devnull as above.
        print(f"gaptri: error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
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


def _render(headers: list[str], rows: list[list[str]], fmt: str) -> Iterator[str]:
    # The table's lines, to be written one by one; the widths are taken first.
    widths = _widths(headers, rows)
    return (_line(cells, widths, fmt) for cells in [headers] + rows)


def _cmd_enumerate(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    from . import listing  # compiled only by the command that lists

    spec = model.parse_model(args.model) if args.model else None
    if args.valid_only and spec is None:
        raise ValueError("--valid-only requires --model")
    return listing.blocks(args.n, spec, args.valid_only, args.format), 0


def _cmd_stats(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    sequences.check_enumerable(args.n)
    weights = model._valid_weights(model.Unbounded(), None, args.n)
    body = [[str(g), str(c)] for g, c in enumerate(weights)]
    return _render(["gap", "count"], body, args.format), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    spec = model.parse_model(args.model)
    target = _load_triangle(args)
    verdicts = [verify.verify_row(spec, target, n) for n in _rows_range(args.rows, target)]
    _write_out(args.out, (verify.verdict_record(v) + "\n" for v in verdicts))
    body, entry = [], verify._entry_text
    for v in verdicts:
        predicted = verify._histogram_text(v.predicted) or "-"
        row = ",".join(str(e) for e in v.target)
        detail = "; ".join(f"k={k}: {entry(p)} vs {entry(t)}" for k, p, t in v.mismatch_detail)
        body.append([str(v.n), "yes" if v.matches else "no", predicted, row, detail or "-"])
    lines = _render(["row", "match", "predicted", "target", "detail"], body, args.format)
    return lines, 0 if all(v.matches for v in verdicts) else 1


def _cmd_obstruct(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    spec = model.parse_model(args.model)
    target = _load_triangle(args)
    reports = [verify.obstruction_report(spec, target, n) for n in _rows_range(args.rows, target)]
    _write_out(args.out, (verify.obstruction_record(r) + "\n" for r in reports))
    body = [
        [str(r.n), str(r.provided_types), str(r.required_types), "yes" if r.obstructed else "no"]
        for r in reports
    ]
    return _render(["row", "provided", "required", "obstructed"], body, args.format), 0


def _cmd_search(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    if args.top < 0:
        raise ValueError("--top must be >= 0")
    target = _load_triangle(args)
    rows = _rows_range(args.rows, target)
    lines, ranked = search.rank_search(search.default_family(), target, rows)
    _write_out(args.out, lines)
    body = []
    for rank, line in enumerate(lines[: args.top]):
        name, score, matched = line[:-1].split("\t")
        result = ranked(rank)  # for the witness
        failure = "-"
        unmatched = [n for n in rows if n not in result.matched_rows]
        if unmatched:
            failure = f"row {unmatched[0]}: " + search.witness(result.model, target, unmatched[0])
        body.append([str(rank + 1), name, score, matched, failure])
    return _render(["rank", "model", "score", "matched", "first_failure"], body, args.format), 0


def _cmd_ingest(args: argparse.Namespace) -> tuple[list[str], int]:
    text = triangle.format_triangle(_load_triangle(args))
    _write_out(args.out, [text])
    return [text] if args.out is None else [], 0


def _write_out(path: str | None, lines: Iterable[str]) -> None:
    # Write beside the file the path resolves to, then rename over that file:
    # it holds either its old bytes or the whole new report, never a partial
    # one, and a symlink to it stays a link. A FIFO or a character device is
    # written into, since replacing it would cut off its reader. The lines are
    # written one by one, never joined into one string.
    if path is None:
        return
    import tempfile  # loaded only by a command that writes a file

    real = os.path.realpath(path) if path else path  # "" names no file: refused below
    folder, name = os.path.split(real)
    tmp = None
    try:
        mode = os.stat(real).st_mode if os.path.exists(real) else 0
        if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):
            with open(real, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            return
        fd, tmp = tempfile.mkstemp(dir=folder or os.curdir, prefix=f".{name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, real)
    except BaseException as exc:
        if tmp is not None and os.path.lexists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # Name the path given, not the file it resolves to or the
            # temporary file beside it, whose name changes from run to run.
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_triangle(args: argparse.Namespace) -> triangle.CoefficientTriangle:
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
            return triangle.embedded_half_triangle()
        with open(args.triangle, encoding="utf-8-sig") as handle:
            return triangle.parse_triangle(handle)
    if args.triangle is not None:
        raise ValueError("--bfile cannot be combined with --triangle")
    if args.row_rule is None:
        raise ValueError("--bfile requires --row-rule")
    rule = _parse_row_rule(args.row_rule)
    with open(args.bfile, encoding="utf-8-sig") as handle:
        return triangle.ingest_bfile(handle, rule)


def _parse_row_rule(text: str) -> Callable[[int], int]:
    if text == "floor(n/2)+1":
        return triangle.half_row_rule
    if text.startswith("explicit:"):
        try:
            lengths = tuple(map(sequences._read_int, text[len("explicit:") :].split(",")))
        except ValueError:
            raise ValueError(f"bad explicit row rule {text!r}") from None

        def rule(n: int) -> int:
            if n > len(lengths):
                raise ValueError(f"explicit row rule covers only {len(lengths)} rows")
            return lengths[n - 1]

        return rule
    raise ValueError(f"unknown row rule {text!r}")


def _rows_range(text: str | None, target: triangle.CoefficientTriangle) -> range:
    if text is None:
        if target.height == 0:
            raise ValueError("triangle has no rows")
        return range(1, target.height + 1)
    first, dots, last = text.partition("..")
    try:
        lo, hi = map(sequences._read_int, (first, last if dots else first))
    except ValueError:
        raise ValueError(f"cannot parse row range {text!r}; expected a..b") from None
    if lo < 1 or hi < lo:
        raise ValueError("row range needs 1 <= a <= b")
    if hi > target.height:
        # The first missing row, refused before any row is worked on.
        raise errors.MissingRowError(max(lo, target.height + 1))
    return range(lo, hi + 1)
