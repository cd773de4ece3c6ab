"""The benchmark's workloads: the CLI invocations each runs, and the check of each output.

paper-search  the paper's own reproduction on the embedded triangle. 55,944
              small histogram and row checks at n <= 9, so the census costs
              almost nothing; a search memo would move it.
long-rows     a planted model verified against rows 1..22 of a triangle the
              benchmark writes. Every fresh process pays a 2**n census per
              row and the search layer is idle; a closed-form census would
              move it.
listing       enumerate and stats up to n = 22: the 2**n scan, validity tests
              and table rendering, the only workload whose memory grows
              with n. The full/valid-only pair splits scan cost from
              render and buffering cost.

Expected answers come from ``inputs`` and from digests of the outputs of the
seed commit, never from gaptri itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import (
    HALF_TRIANGLE,
    PLANTED,
    canonical_histogram,
    gap_distribution,
    planted_rows,
    triangle_text,
)

LONG_ROWS = 22

# sha256 of outputs of the seed commit. The search file for rows 1..4 is
# tests/golden/search_default_rows_1_4.tsv; the one for rows 1..9 is
# byte-identical to it, since no candidate matches any of rows 4..9.
SEARCH_OUT_1_4 = "1ca014551c526104e5b739e76cdd54207c1de63eab9cd22c49234a34c28c160f"
SEARCH_OUT_1_9 = "1ca014551c526104e5b739e76cdd54207c1de63eab9cd22c49234a34c28c160f"
SEARCH_OUT_LINES = 6216
ENUMERATE_18_FULL = "51a08214fc2dd4e601cbb6b1ca6f0c68347ab81f8c0a28fbb5900c72e75bddcb"
ENUMERATE_19_VALID = "05336f7e23b42523a604b965b24d5d4786176f3f28262bd5479c9a08b6fae5ab"

ROW4_DETAIL = "k=2: 4 vs 12; k=3: absent vs 4"


@dataclass(frozen=True)
class Output:
    """What one invocation produced. ``text`` is stdout when it is small
    enough to keep; large outputs are only hashed and counted."""

    code: int
    text: str | None
    sha256: str
    lines: int
    out_sha256: str | None
    out_lines: int | None


Check = Callable[[Output], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``kind`` names the per-command time it counts towards."""

    kind: str
    argv: tuple[str, ...]
    check: Check
    out_file: Path | None = None


def _table(out: Output, header: list[str]) -> list[list[str]]:
    """Body cells of an aligned table; columns are separated by two or more spaces."""
    if out.text is None:
        raise ValueError("output too large to parse")
    lines = [re.split(r" {2,}", line.rstrip()) for line in out.text.splitlines()]
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else None} != {header}")
    return lines[1:]


def _checked(code: int, body: Callable[[Output], str | None]) -> Check:
    """A check that wants exit ``code`` and then whatever ``body`` wants."""

    def check(out: Output) -> str | None:
        if out.code != code:
            return f"exit {out.code}, expected {code}"
        try:
            return body(out)
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}"

    return check


def _expect(what: str, got: object, want: object) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _hist_text(hist: dict[int, int]) -> str:
    return ",".join(f"{k}:{c}" for k, c in hist.items())


def _row_text(row: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in row)


def paper_search(seed: int, work: Path) -> list[Invocation]:
    del seed  # the paper fixes these inputs

    def verify(out: Output) -> str | None:
        body = _table(out, ["row", "match", "predicted", "target", "detail"])
        want = [
            [str(n), "yes" if n <= 3 else "no", _hist_text(canonical_histogram(n)), _row_text(row)]
            for n, row in enumerate(HALF_TRIANGLE, start=1)
        ]
        return _expect("rows", [r[:4] for r in body], want) or _expect("row 4 detail", body[3][4], ROW4_DETAIL)

    def obstruct(out: Output) -> str | None:
        want = [
            [str(n), str(len(canonical_histogram(n))), str(len(HALF_TRIANGLE[n - 1])), "yes"]
            for n in range(4, 10)
        ]
        return _expect("rows", _table(out, ["row", "provided", "required", "obstructed"]), want)

    def search(digest: str) -> Callable[[Output], str | None]:
        def body(out: Output) -> str | None:
            ranked = _table(out, ["rank", "model", "score", "matched", "first_failure"])
            return (
                _expect("--out sha256", out.out_sha256, digest)
                or _expect("--out lines", out.out_lines, SEARCH_OUT_LINES)
                or _expect("ranks", [r[0] for r in ranked], [str(i) for i in range(1, 21)])
                or _expect("top score and rows", ranked[0][2:4], ["3", "1,2,3"])
            )

        return body

    out_4, out_9 = work / "search_rows_1_4.tsv", work / "search_rows_1_9.tsv"
    return [
        Invocation("verify", ("verify", "--rows", "1..9"), _checked(1, verify)),
        Invocation("obstruct", ("obstruct", "--rows", "4..9"), _checked(0, obstruct)),
        Invocation("search", ("search", "--rows", "1..4", "--out", str(out_4)), _checked(0, search(SEARCH_OUT_1_4)), out_4),
        Invocation("search", ("search", "--rows", "1..9", "--out", str(out_9)), _checked(0, search(SEARCH_OUT_1_9)), out_9),
    ]


def long_rows(seed: int, work: Path) -> list[Invocation]:
    model = PLANTED[seed % len(PLANTED)]
    rows = planted_rows(model, LONG_ROWS)
    path = work / "long_rows.txt"
    path.write_text(triangle_text(model, rows), encoding="utf-8")

    def verify(out: Output) -> str | None:
        want = [
            [str(n), "yes", _hist_text(model.histogram(n)), _row_text(row), "-"]
            for n, row in enumerate(rows, start=1)
        ]
        return _expect("rows", _table(out, ["row", "match", "predicted", "target", "detail"]), want)

    def obstruct(out: Output) -> str | None:
        want = []
        for n, row in enumerate(rows, start=1):
            provided = len(canonical_histogram(n))
            want.append([str(n), str(provided), str(len(row)), "yes" if provided < len(row) else "no"])
        return _expect("rows", _table(out, ["row", "provided", "required", "obstructed"]), want)

    span = f"1..{LONG_ROWS}"
    return [
        Invocation("verify", ("verify", "--model", model.text, "--triangle", str(path), "--rows", span), _checked(0, verify)),
        Invocation("obstruct", ("obstruct", "--model", "canonical", "--triangle", str(path), "--rows", span), _checked(0, obstruct)),
    ]


def listing(seed: int, work: Path) -> list[Invocation]:
    del seed, work  # fixed inputs, no files

    def enumerate_full(out: Output) -> str | None:
        return _expect("lines", out.lines, 2**18 + 1) or _expect("sha256", out.sha256, ENUMERATE_18_FULL)

    def enumerate_valid(out: Output) -> str | None:
        body = _table(out, ["sequence", "has_B", "first_B", "last_B", "gap", "gap<=1?", "k=gap+1", "valid?"])
        return (
            _expect("valid rows", len(body), 2 * 19 - 1)
            or _expect("valid? column", {r[-1] for r in body}, {"Yes"})
            or _expect("sha256", out.sha256, ENUMERATE_19_VALID)
        )

    def stats(out: Output) -> str | None:
        want = [[str(g), str(c)] for g, c in gap_distribution(22).items()]
        return _expect("gap counts", _table(out, ["gap", "count"]), want)

    return [
        Invocation("enumerate", ("enumerate", "-n", "18", "--model", "gap<=inf; type=affine(1,1); bcount=*"), _checked(0, enumerate_full)),
        Invocation("enumerate_valid", ("enumerate", "-n", "19", "--model", "canonical", "--valid-only"), _checked(0, enumerate_valid)),
        Invocation("stats", ("stats", "-n", "22"), _checked(0, stats)),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Invocation]]] = {
    "paper-search": paper_search,
    "long-rows": long_rows,
    "listing": listing,
}
