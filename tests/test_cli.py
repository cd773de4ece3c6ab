import decimal
import errno
import hashlib
import importlib
import io
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaptri
from gaptri import (
    ModelSpec,
    Threshold,
    count_by_gap,
    default_family,
    embedded_half_triangle,
    enumerate_all,
    format_model,
    format_triangle,
    gap_statistics,
    is_valid,
    parse_model,
    type_for_gap,
    type_histogram,
    valid_set,
    verify_row,
)
from gaptri import cli, listing, search
from gaptri.model import _type_counts
from gaptri.cli import main
from gaptri.listing import _k_header, _threshold_text

BFILE_FIXTURE = str(Path(__file__).parent / "data" / "b223168_rows_1_9.txt")
SEARCH_GOLDEN = Path(__file__).parent / "golden" / "search_default_rows_1_4.tsv"

TABLE_N2 = """\
sequence  has_B  first_B  last_B  gap  gap<=1?  k=2-gap  valid?
RR        No     --       --      --   --       --       No
RB        Yes    2        2       0    Yes      2        Yes
BR        Yes    1        1       0    Yes      2        Yes
BB        Yes    1        2       1    Yes      1        Yes
"""

TABLE_N3 = """\
sequence  has_B  first_B  last_B  gap  gap<=1?  k=gap+1  valid?
RRR       No     --       --      --   --       --       No
RRB       Yes    3        3       0    Yes      1        Yes
RBR       Yes    2        2       0    Yes      1        Yes
RBB       Yes    2        3       1    Yes      2        Yes
BRR       Yes    1        1       0    Yes      1        Yes
BRB       Yes    1        3       2    No       3        No
BBR       Yes    1        2       1    Yes      2        Yes
BBB       Yes    1        3       2    No       3        No
"""


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, function):
    """Record the arguments of every call to ``function`` through any name a
    gaptri module binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "gaptri" or name.startswith("gaptri."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def oracle_render(headers, rows, fmt):
    """The buffered table renderer: widths measured over every row."""
    if fmt == "tsv":
        return "".join("\t".join(cells) + "\n" for cells in [headers] + rows)
    widths = [len(h) for h in headers]
    for cells in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, cells)]
    lines = []
    for cells in [headers] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def oracle_scan(n):
    """One BinarySequence and its GapStatistics per code of the 2**n scan."""
    return [(seq, gap_statistics(seq)) for seq in enumerate_all(n)]


def oracle_enumerate(n, model_text):
    """Headers and rows of the buffered full listing: one is_valid per code
    of the 2**n scan. A --valid-only listing keeps the rows ending in Yes."""
    model = parse_model(model_text) if model_text else None
    headers = ["sequence", "has_B"]
    show_bcount = model is not None and model.b_count is not None
    if show_bcount:
        headers.append("#B")
    headers += ["first_B", "last_B", "gap"]
    if model is not None:
        headers += [f"gap<={_threshold_text(model, n)}?", _k_header(model, n), "valid?"]
        limit = model.gap_threshold.limit(n)
    body = []
    for seq, stats in oracle_scan(n):
        valid = model is not None and is_valid(model, seq)
        cells = [str(seq), "Yes" if stats else "No"]
        if show_bcount:
            cells.append(str(seq.b_count))
        if stats is None:
            cells += ["--", "--", "--"]
        else:
            cells += [str(stats.first_b), str(stats.last_b), str(stats.gap)]
        if model is not None:
            if stats is None:
                cells += ["--", "--", "No"]
            else:
                cells += [
                    "Yes" if stats.gap <= limit else "No",
                    str(type_for_gap(model, n, stats.gap)),
                    "Yes" if valid else "No",
                ]
        body.append(cells)
    return headers, body


def listing_lines(text):
    """Lines with their ends, so that a failed comparison of two long
    listings reports the first differing line instead of diffing both."""
    return text.splitlines(keepends=True)


TOO_LONG = "gaptri: error: {} rows could exceed {} bytes; list fewer with --valid-only\n"

GRID_THRESHOLDS = ["0", "1", "2", "3", "n/2", "inf"]
GRID_TYPE_MAPS = [
    "parity-paper", "affine(1,1)", "affine(-3,2)", "even(-1,2)/odd(2,-3)", "affine(12,-100)",
]
GRID_WINDOWS = ["*", "1..1", "1..2", "2..2", "3..5", "7..9", "2..20"]

#: ASCII digits past the interpreter's default int-string limit of 4300 digits.
OVER_LONG = "9" * 5000


@pytest.fixture
def default_int_limit():
    """Hold the interpreter's default int-string limit during the test, so that
    OVER_LONG is past it whatever PYTHONINTMAXSTRDIGITS says."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestEnumerate:
    def test_n2_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--model", "canonical")
        assert code == 0
        assert out == TABLE_N2

    def test_n3_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "3", "--model", "canonical")
        assert code == 0
        assert out == TABLE_N3

    def test_valid_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "-n", "3", "--model", "canonical", "--valid-only"
        )
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 5
        assert all(line.endswith("Yes") for line in body)

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "-n", "2", "--model", "canonical", "--format", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sequence\thas_B\tfirst_B\tlast_B\tgap\tgap<=1?\tk=2-gap\tvalid?"
        assert lines[2] == "RB\tYes\t2\t2\t0\tYes\t2\tYes"

    @pytest.mark.parametrize(
        "type_map, even_header, odd_header",
        [
            ("affine(1,1)", "k=1*gap+1", "k=1*gap+1"),
            ("affine(-1,2)", "k=-1*gap+2", "k=-1*gap+2"),
            ("even(-1,2)/odd(2,-3)", "k=-1*gap+2", "k=2*gap-3"),
            ("parity-paper", "k=2-gap", "k=gap+1"),
        ],
    )
    @pytest.mark.parametrize("n", [4, 5])
    def test_k_header(self, capsys, type_map, even_header, odd_header, n):
        model = f"gap<=1; type={type_map}; bcount=*"
        code, out, _ = run_cli(
            capsys, "enumerate", "-n", str(n), "--model", model, "--format", "tsv"
        )
        assert code == 0
        assert out.splitlines()[0].split("\t")[6] == (even_header if n % 2 == 0 else odd_header)

    def test_without_model_lists_gap_columns_only(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "2")
        assert code == 0
        assert out.splitlines()[0].split() == ["sequence", "has_B", "first_B", "last_B", "gap"]

    def test_b_count_column_appears_for_constrained_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "-n", "2",
            "--model", "gap<=1; type=parity-paper; bcount=1..1",
        )
        assert code == 0
        assert "#B" in out.splitlines()[0]

    def test_n0_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "-n", "0")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_valid_only_requires_model(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "-n", "2", "--valid-only")
        assert code == 2
        assert "--valid-only" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-n", "3", "--valid-only"], "--valid-only requires --model"),
            (["-n", "31", "--valid-only"], "--valid-only requires --model"),
            (["-n", "31", "--valid-only", "--model", "bogus"], "cannot parse model text 'bogus'"),
        ],
        ids=["short", "too-long", "bad-model"],
    )
    def test_valid_only_refusal_order(self, capsys, argv, message):
        # The model text is parsed first, then --valid-only's need for a
        # model is checked, and only then the length.
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert (code, out, err) == (2, "", f"gaptri: error: {message}\n")

    @pytest.mark.parametrize("n", range(1, 11))
    def test_streamed_listing_equals_buffered_oracle(self, capsys, monkeypatch, n):
        # One parser for the whole grid: building it dominates small listings.
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        models = [None] + [
            f"gap<={t}; type={tm}; bcount={w}"
            for t in GRID_THRESHOLDS
            for tm in GRID_TYPE_MAPS
            for w in GRID_WINDOWS
        ]
        for model in models:
            headers, body = oracle_enumerate(n, model)
            for valid_only in (False, True) if model else (False,):
                rows = [cells for cells in body if cells[-1] == "Yes"] if valid_only else body
                for fmt in ("table", "tsv"):
                    argv = ["enumerate", "-n", str(n), "--format", fmt]
                    argv += ["--model", model] if model else []
                    argv += ["--valid-only"] if valid_only else []
                    code, out, err = run_cli(capsys, *argv)
                    assert (code, err) == (0, ""), argv
                    assert out == oracle_render(headers, rows, fmt), argv

    def test_valid_only_is_output_sized(self, capsys):
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "enumerate", "-n", "30", "--model", "canonical", "--valid-only"
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 59
        assert lines[1].split() == ["R" * 29 + "B", "Yes", "30", "30", "0", "Yes", "2", "Yes"]
        assert lines[-1].split() == ["BB" + "R" * 28, "Yes", "1", "2", "1", "Yes", "1", "Yes"]
        assert elapsed < 1.0

    @pytest.mark.parametrize("valid_only, rows", [(False, 16), (True, 7)])
    def test_listing_bound_is_exact(self, capsys, monkeypatch, valid_only, rows):
        # At n = 4 every canonical header is at least as wide as its cells,
        # so the bound allows each row the length of the header line.
        argv = ["enumerate", "-n", "4", "--model", "canonical"]
        argv += ["--valid-only"] if valid_only else []
        code, full, _ = run_cli(capsys, *argv)
        assert code == 0
        bound = (rows + 1) * len(full.splitlines(keepends=True)[0])
        monkeypatch.setattr(listing, "_LISTING_BYTES", bound - 1)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == TOO_LONG.format(rows, bound - 1)
        monkeypatch.setattr(listing, "_LISTING_BYTES", bound)
        assert run_cli(capsys, *argv) == (0, full, "")

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["enumerate", "-n", "30"], 2**30),
            (
                ["enumerate", "-n", "30", "--valid-only"]
                + ["--model", "gap<=inf; type=affine(1,1); bcount=*"],
                2**30 - 1,
            ),
        ],
    )
    def test_oversized_listing_is_refused_at_once(self, capsys, argv, rows):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == TOO_LONG.format(rows, 2**32)

    @staticmethod
    def write_sizes(monkeypatch, argv):
        """The stdout of main(argv) and the length of each write it made."""

        class Sink(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        return sink.getvalue(), sink.sizes

    @staticmethod
    def assert_bounded(sizes):
        # Every write is one non-empty block of at most a chunk; stdout's
        # own buffer batches the small ones.
        assert all(0 < size <= listing._CHUNK_BYTES for size in sizes)

    def test_rows_stream_in_bounded_writes(self, monkeypatch):
        model = "gap<=inf; type=affine(1,1); bcount=*"
        out, sizes = self.write_sizes(monkeypatch, ["enumerate", "-n", "16", "--model", model])
        assert len(sizes) > 1
        self.assert_bounded(sizes)
        expected = oracle_render(*oracle_enumerate(16, model), "table")
        assert listing_lines(out) == listing_lines(expected)

    def test_narrow_valid_listing_writes_are_bounded(self, monkeypatch):
        # Two to four B's: each block holds a few rows, far below a chunk,
        # and is written on its own.
        model = "gap<=inf; type=affine(1,1); bcount=2..4"
        argv = ["enumerate", "-n", "16", "--model", model, "--valid-only"]
        out, sizes = self.write_sizes(monkeypatch, argv)
        assert len(sizes) > 1
        self.assert_bounded(sizes)
        headers, body = oracle_enumerate(16, model)
        rows = [cells for cells in body if cells[-1] == "Yes"]
        assert listing_lines(out) == listing_lines(oracle_render(headers, rows, "table"))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 9),
        model=st.none()
        | st.builds(
            "gap<={}; type={}; bcount={}".format,
            st.sampled_from(GRID_THRESHOLDS),
            st.sampled_from(GRID_TYPE_MAPS),
            st.sampled_from(GRID_WINDOWS),
        ),
        valid_only=st.booleans(),
        fmt=st.sampled_from(["table", "tsv"]),
        chunk=st.integers(64, 4096),
    )
    def test_split_blocks_equal_buffered_oracle(self, n, model, valid_only, fmt, chunk):
        # Small chunks split each highest-B run into many blocks (down to
        # one row each), which the default chunk never does at n <= 10.
        valid_only = valid_only and model is not None
        argv = ["enumerate", "-n", str(n), "--format", fmt]
        argv += ["--model", model] if model else []
        argv += ["--valid-only"] if valid_only else []
        headers, body = oracle_enumerate(n, model)
        rows = [cells for cells in body if cells[-1] == "Yes"] if valid_only else body
        sink = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(listing, "_CHUNK_BYTES", chunk)
            patch.setattr(sys, "stdout", sink)
            assert main(argv) == 0
        assert sink.getvalue() == oracle_render(headers, rows, fmt), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "-n", "31"],
            ["enumerate", "-n", "30"],
            ["enumerate", "-n", "2", "--valid-only"],
            ["enumerate", "-n", "2", "--model", "gap<=x", "--valid-only"],
        ],
    )
    def test_refused_listing_prints_nothing(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("gaptri: error: ")


class TestValidCodes:
    def test_equals_scan_for_every_family_model(self):
        # Validity reads only the threshold and the B-count window, so one
        # check per pair covers every model of the family. The extra windows
        # make valid_set's walk step over runs of too few and too many B's;
        # the extra threshold is negative at n = 2 and 3.
        family = default_family()
        thresholds = family.thresholds + (Threshold(1, -3, "n/2-3"),)
        for n in range(1, 13):
            windows = family.b_count_options + ((3, 5), (4, 4), (2, n), (n, n))
            for threshold in thresholds:
                for window in windows:
                    if window is not None and window[0] > window[1]:
                        continue
                    model = ModelSpec(threshold, family.type_maps[0], window)
                    expected = [s for s in enumerate_all(n) if is_valid(model, s)]
                    assert valid_set(model, n) == expected, (model, n)

    def test_narrow_window_is_output_sized(self, capsys):
        started = time.perf_counter()
        model = "gap<=inf; type=affine(1,1); bcount=1..1"
        code, out, _ = run_cli(capsys, "enumerate", "-n", "30", "--model", model, "--valid-only")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(out.splitlines()) == 1 + 30
        assert elapsed < 1.0

    def test_top_window_is_output_sized(self, capsys):
        # 25 or 26 B's of 26: a few rows for each high part of a block, none
        # of them under the highest B's but the last two.
        started = time.perf_counter()
        model = "gap<=inf; type=affine(1,1); bcount=25..26"
        code, out, _ = run_cli(capsys, "enumerate", "-n", "26", "--model", model, "--valid-only")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(out.splitlines()) == 1 + type_histogram(parse_model(model), 26).total
        assert elapsed < 1.0


class TestStats:
    def test_n3(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "-n", "3")
        assert code == 0
        assert out == "gap  count\n0    3\n1    2\n2    2\n"

    def test_tsv(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "-n", "3", "--format", "tsv")
        assert code == 0
        assert out == "gap\tcount\n0\t3\n1\t2\n2\t2\n"

    @pytest.mark.parametrize("fmt", ["table", "tsv"])
    def test_equals_scan(self, capsys, fmt):
        for n in range(1, 19):
            code, out, _ = run_cli(capsys, "stats", "-n", str(n), "--format", fmt)
            body = [[str(gap), str(count)] for gap, count in count_by_gap(n).items()]
            assert (code, out) == (0, oracle_render(["gap", "count"], body, fmt)), n

    def test_n30_is_output_sized(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "-n", "30")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 31
        assert lines[-1].split() == ["29", str(2**28)]


class TestVerify:
    def test_first_three_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rows", "1..3")
        assert code == 0
        assert out.count("yes") == 3

    def test_row_four_fails_with_detail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rows", "1..4")
        assert code == 1
        assert "k=2: 4 vs 12" in out
        assert "k=3: absent vs 4" in out

    def test_record_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, _, _ = run_cli(capsys, "verify", "--rows", "1..4", "--out", str(out_path))
        assert code == 1
        assert out_path.read_text(encoding="utf-8") == (
            "row=1 match=true predicted=1:1 target=1\n"
            "row=2 match=true predicted=1:1,2:2 target=1,2\n"
            "row=3 match=true predicted=1:3,2:2 target=3,2\n"
            "row=4 match=false predicted=1:3,2:4 target=3,12,4\n"
        )

    def test_bfile_source_matches_embedded(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "verify", "--rows", "1..9")
        code_b, out_b, _ = run_cli(
            capsys, "verify", "--bfile", BFILE_FIXTURE, "--row-rule", "floor(n/2)+1",
            "--rows", "1..9",
        )
        assert (code_a, out_a) == (code_b, out_b)

    def test_native_triangle_source(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text(format_triangle(embedded_half_triangle()), encoding="utf-8")
        code, _, _ = run_cli(capsys, "verify", "--triangle", str(path), "--rows", "1..3")
        assert code == 0

    def test_default_rows_cover_whole_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert len(out.splitlines()) == 10

    def test_missing_triangle_file(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--triangle", "/nonexistent/t.txt")
        assert code == 2
        assert out == ""
        assert err != ""


class TestObstruct:
    def test_rows_4_to_9(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "--rows", "4..9")
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 6
        assert all(line.endswith("yes") for line in body)

    def test_records(self, capsys, tmp_path):
        out_path = tmp_path / "obstruct.txt"
        code, _, _ = run_cli(capsys, "obstruct", "--rows", "3..4", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == (
            "row=3 provided=2 required=2 obstructed=false\n"
            "row=4 provided=2 required=3 obstructed=true\n"
        )


class TestSearch:
    def test_deterministic_table(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "search", "--rows", "1..3", "--top", "5")
        code_b, out_b, _ = run_cli(capsys, "search", "--rows", "1..3", "--top", "5")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert len(out_a.splitlines()) == 6

    def test_top_candidates_score_three(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--rows", "1..4", "--top", "3")
        for line in out.splitlines()[1:]:
            assert "1,2,3" in line

    @pytest.mark.parametrize("top", ["-1", "-3"])
    def test_negative_top_is_refused(self, capsys, monkeypatch, top):
        def no_load(args):
            raise AssertionError("triangle loaded before --top was checked")

        monkeypatch.setattr(cli, "_load_triangle", no_load)
        code, out, err = run_cli(capsys, "search", "--rows", "1..3", "--top", top)
        assert (code, out) == (2, "")
        assert err == "gaptri: error: --top must be >= 0\n"

    def test_out_formats_only_the_printed_models(self, capsys, tmp_path, monkeypatch):
        # The records and the printed cells come straight from the ranking:
        # no model is formatted, each live row is checked once per (group,
        # type pair) against its census, and only a printed row's witness
        # verifies a row.
        formatted = count_calls(monkeypatch, format_model)
        verified = count_calls(monkeypatch, verify_row)
        checked = []

        def check(weights, pair):
            checked.append(pair)
            return _type_counts(weights, pair)

        monkeypatch.setattr(search, "_type_counts", check)
        out_path = tmp_path / "s9.tsv"
        code, out, err = run_cli(capsys, "search", "--rows", "1..9", "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_bytes() == SEARCH_GOLDEN.read_bytes()
        assert len(out.splitlines()) == 21
        assert len(formatted) == 0
        assert len(verified) == 20
        assert len(checked) == 512

    def test_top_past_the_family_prints_every_candidate(self, capsys):
        code, out, err = run_cli(capsys, "search", "--rows", "1..2", "--top", "7000")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 1 + 6216
        assert lines[-1].split()[0] == "6216"

    def test_family_is_unrecognized(self, capsys):
        code, out, err = run_cli(capsys, "search", "--rows", "1..3", "--family", "default")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --family default" in err


class TestIngest:
    def test_bfile_prints_canonical_triangle(self, capsys):
        code, out, _ = run_cli(
            capsys, "ingest", "--bfile", BFILE_FIXTURE, "--row-rule", "floor(n/2)+1"
        )
        assert code == 0
        assert out == format_triangle(embedded_half_triangle())

    def test_out_file_quiet_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "triangle.txt"
        code, out, _ = run_cli(
            capsys, "ingest", "--bfile", BFILE_FIXTURE, "--row-rule", "floor(n/2)+1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == format_triangle(embedded_half_triangle())

    def test_explicit_rule(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 4\n2 5\n3 6\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "ingest", "--bfile", str(bfile), "--row-rule", "explicit:1,2"
        )
        assert code == 0
        assert out == "4\n5 6\n"

    def test_empty_explicit_rule_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "ingest", "--bfile", BFILE_FIXTURE, "--row-rule", "explicit:"
        )
        assert (code, out) == (2, "")
        assert err == "gaptri: error: bad explicit row rule 'explicit:'\n"

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("explicit:1,1", "explicit row rule covers only 2 rows"),
            ("n+1", "unknown row rule 'n+1'"),
            ("explicit:0", "row-length rule gave 0 for row 1"),
        ],
    )
    def test_bad_row_rule_is_refused(self, capsys, rule, message):
        code, out, err = run_cli(capsys, "ingest", "--bfile", BFILE_FIXTURE, "--row-rule", rule)
        assert (code, out) == (2, "")
        assert err == f"gaptri: error: {message}\n"

    def test_bad_bfile_is_operational_error(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\n2 oops\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "ingest", "--bfile", str(bfile), "--row-rule", "floor(n/2)+1"
        )
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_bfile_requires_row_rule(self, capsys):
        code, _, err = run_cli(capsys, "ingest", "--bfile", BFILE_FIXTURE)
        assert code == 2
        assert "--row-rule" in err

    @pytest.mark.parametrize(
        "option, text, rule",
        [
            ("--triangle", format_triangle(embedded_half_triangle()), None),
            ("--bfile", Path(BFILE_FIXTURE).read_text(encoding="utf-8"), "floor(n/2)+1"),
        ],
        ids=["triangle", "bfile"],
    )
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, option, text, rule):
        rule_args = ["--row-rule", rule] if rule else []
        outs = []
        for name, mark in (("plain.txt", ""), ("marked.txt", "\ufeff")):
            path = tmp_path / name
            path.write_text(mark + text, encoding="utf-8")
            outs.append(run_cli(capsys, "ingest", option, str(path), *rule_args))
        assert outs[1] == outs[0] == (0, format_triangle(embedded_half_triangle()), "")


class TestTriangleSource:
    @pytest.mark.parametrize("command", ["verify", "obstruct", "search", "ingest"])
    @pytest.mark.parametrize("triangle", [[], ["--triangle", "/nonexistent/t.txt"]])
    def test_row_rule_requires_bfile(self, capsys, tmp_path, command, triangle):
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(
            capsys, command, *triangle, "--row-rule", "floor(n/2)+1", "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err == "gaptri: error: --row-rule requires --bfile\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["verify", "obstruct", "search", "ingest"])
    @pytest.mark.parametrize("triangle", ["embedded", "/nonexistent/t.txt"])
    def test_bfile_refuses_triangle(self, capsys, tmp_path, command, triangle):
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(
            capsys, command, "--triangle", triangle, "--bfile", BFILE_FIXTURE,
            "--row-rule", "floor(n/2)+1", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == "gaptri: error: --bfile cannot be combined with --triangle\n"
        assert not out_path.exists()

    def test_explicit_embedded_equals_default(self, capsys):
        assert run_cli(capsys, "ingest", "--triangle", "embedded") == run_cli(capsys, "ingest")

    @pytest.mark.parametrize("command", ["verify", "obstruct", "search", "ingest"])
    def test_embedded_beside_a_file_named_embedded_is_refused(
        self, capsys, tmp_path, monkeypatch, command
    ):
        (tmp_path / "embedded").write_text("1\n1 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, command, "--triangle", "embedded")
        assert (code, out) == (2, "")
        assert "--triangle ./embedded" in err

    def test_dot_slash_embedded_reads_the_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "embedded").write_text("1\n1 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "ingest", "--triangle", "./embedded") == (0, "1\n1 1\n", "")
        assert run_cli(capsys, "ingest") == (0, format_triangle(embedded_half_triangle()), "")


class TestOutFile:
    def test_search_out_matches_golden(self, capsys, tmp_path):
        out_path = tmp_path / "search.tsv"
        code, _, _ = run_cli(capsys, "search", "--rows", "1..4", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == SEARCH_GOLDEN.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["search.tsv"]

    def test_replaces_longer_file_with_plain_mode(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        out_path.write_text("stale\n" * 100, encoding="utf-8")
        code, _, _ = run_cli(capsys, "obstruct", "--rows", "4", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == (
            "row=4 provided=2 required=3 obstructed=true\n"
        )
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_keeps_old_target(self, capsys, tmp_path, monkeypatch, stage):
        out_path = tmp_path / "report.txt"
        out_path.write_bytes(b"old report\n")
        disk_full = OSError(errno.ENOSPC, "No space left on device")
        if stage == "write":
            real_fdopen = os.fdopen

            def fdopen_that_fills_up(fd, *args, **kwargs):
                handle = real_fdopen(fd, *args, **kwargs)
                real_write = handle.write

                def write(text):
                    real_write(text[: len(text) // 2])
                    raise disk_full

                handle.write = write
                return handle

            monkeypatch.setattr(os, "fdopen", fdopen_that_fills_up)
        else:

            def failing_replace(src, dst):
                raise disk_full

            monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = run_cli(capsys, "verify", "--rows", "1..4", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "No space left on device" in err
        assert out_path.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_interrupted_write_keeps_old_target(self, tmp_path):
        out_path = tmp_path / "report.txt"
        out_path.write_bytes(b"old report\n")
        interrupt = KeyboardInterrupt()

        def lines():
            yield "row=1\n"
            raise interrupt

        with pytest.raises(KeyboardInterrupt) as caught:
            cli._write_out(str(out_path), lines())
        assert caught.value is interrupt
        assert out_path.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestOutWrites:
    def test_search_out_is_written_line_by_line(self, capsys, tmp_path, monkeypatch):
        writes = []
        real_fdopen = os.fdopen

        def fdopen_that_counts(fd, *args, **kwargs):
            handle = real_fdopen(fd, *args, **kwargs)
            real_write = handle.write

            def write(text):
                writes.append(len(text))
                return real_write(text)

            handle.write = write
            return handle

        monkeypatch.setattr(os, "fdopen", fdopen_that_counts)
        out_path = tmp_path / "search.tsv"
        code, _, _ = run_cli(
            capsys, "search", "--rows", "1..4", "--top", "0", "--out", str(out_path)
        )
        assert code == 0
        golden = SEARCH_GOLDEN.read_bytes()
        assert out_path.read_bytes() == golden
        assert len(writes) > 1
        assert max(writes) <= max(len(line) for line in golden.splitlines(keepends=True))

    def test_missing_directory_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x"
        errors = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "verify", "--out", str(target))
            assert code == 2
            assert out == ""
            errors.append(err)
        expected = (
            f"gaptri: error: [Errno {errno.ENOENT}] No such file or directory: {str(target)!r}\n"
        )
        assert errors == [expected, expected]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--rows", "1..3"],
            ["obstruct", "--rows", "4"],
            ["search", "--rows", "1..2", "--top", "0"],
            ["ingest"],
        ],
    )
    def test_empty_out_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        # An empty path names no file: the write is refused, not skipped, and
        # the file written beside it is removed.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err == f"gaptri: error: [Errno {errno.ENOENT}] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        code, out, err = run_cli(capsys, "obstruct", "--rows", "4", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"gaptri: error: [Errno {errno.EISDIR}] Is a directory: {str(target)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]


def write_planted(path, height):
    """Rows 1..height of the triangle planted by gap<=inf; type=affine(1,1); bcount=*.

    Row n counts n sequences of gap 0, then (n - g) * 2**(g - 1) of each gap g >= 1.
    """
    rows = ([n] + [(n - g) * 2 ** (g - 1) for g in range(1, n)] for n in range(1, height + 1))
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")


class TestByteContract:
    """sha256 of whole outputs, the same digests the CI console-script step checks.

    A case with ``--out`` digests that file; the others digest stdout.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["stats", "-n", "30"],
                "6b022c3cd36f2067d306a3125b00e9afccd6379e54104541bf24ac994a6a387e",
            ),
            (
                ["enumerate", "-n", "17"],
                "144c842cf4ce04514b381bcf1d46999a6126f66162cea31b884849bba812e857",
            ),
            (
                ["enumerate", "-n", "16", "--model", "gap<=3; type=parity-paper; bcount=2..4"]
                + ["--format", "tsv"],
                "c49170195ddb6e5ac010aafb33f88d0c4248b3f945de1878faaa9e9c387b2978",
            ),
            (
                ["enumerate", "-n", "20", "--valid-only", "--model"]
                + ["gap<=n/2; type=even(-1,2)/odd(2,-3); bcount=3..5"],
                "664102565ace7c603380ef834c5d0a79354feedb714968027fa4ea709b03e97d",
            ),
            (
                ["enumerate", "-n", "16", "--valid-only", "--model"]
                + ["gap<=inf; type=affine(1,1); bcount=2..4"],
                "5d3ffbe667309c1958705089a028c032c57d27a2ee62194ae7abbf47e560ed2e",
            ),
            (
                ["search", "--triangle", "planted60.txt", "--rows", "1..60", "--top", "0"]
                + ["--out", "p60.tsv"],
                "845e8ba0fac320ea7a5162dd2ff2b188cd3a28f5a2198e0d66dfb251d404fff9",
            ),
            (
                ["search", "--triangle", "planted200.txt", "--rows", "1..200", "--top", "0"]
                + ["--out", "p200.tsv"],
                "4e32ea3efb4090a6c59c03750c0de616455cd9c7f4d7cf379abf638c316c453d",
            ),
            (
                ["search", "--rows", "1..9"],
                "40bd97117373abee8f93b39092a177472e9d31e49186221fe8495b522e97a29b",
            ),
            (
                ["search", "--rows", "1..4", "--top", "100", "--format", "tsv"],
                "20bd7c450dfef2783dcf7aa914dbd64d7e3c100321d8f5e3de05d75c6086dd38",
            ),
        ],
        ids=[
            "stats-30",
            "enumerate-17",
            "parity-tsv-16",
            "even-odd-valid-20",
            "affine-valid-16",
            "planted-search-60",
            "planted-search-200",
            "search-table-9",
            "search-tsv-top-100",
        ],
    )
    def test_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        write_planted(tmp_path / "planted60.txt", 60)
        write_planted(tmp_path / "planted200.txt", 200)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if "--out" in argv:
            data = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
        else:
            data = out.encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--rows", "1..3"],
            ["obstruct", "--rows", "4..9"],
            ["search", "--rows", "1..3"],
            ["ingest", "--bfile", BFILE_FIXTURE, "--row-rule", "floor(n/2)+1"],
            ["enumerate", "-n", "5"],
            ["stats", "-n", "5"],
        ],
    )
    def test_cap_is_unrecognized(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--cap", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: gaptri")
        assert "unrecognized arguments: --cap 4" in err

    @pytest.mark.parametrize(
        ("argv", "row"),
        [
            (["search", "--rows", "1..2000000000", "--top", "0"], 10),
            (["search", "--rows", "5..20"], 10),
            (["verify", "--rows", "20..30"], 20),
            (["obstruct", "--rows", "1..100000"], 10),
        ],
    )
    def test_rows_past_the_triangle_are_refused_at_once(self, capsys, tmp_path, argv, row):
        out_path = tmp_path / "out.txt"
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (2, "", f"gaptri: error: triangle has no row {row}\n")
        assert list(tmp_path.iterdir()) == []

    def test_ingest_format_is_unrecognized(self, capsys):
        # ingest prints only the native triangle format; it has no --format.
        code, out, err = run_cli(capsys, "ingest", "--format", "tsv")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: gaptri")
        assert "unrecognized arguments: --format tsv" in err

    def test_cap_over_limit(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "-n", "3", "--cap", "31")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --cap 31" in err

    def test_cap_restricts_n(self, capsys):
        # There is no cap left to restrict -n: the option itself is refused.
        code, out, err = run_cli(capsys, "enumerate", "-n", "5", "--cap", "4")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --cap 4" in err

    @pytest.mark.parametrize("command", ["verify", "obstruct"])
    def test_missing_long_row_is_refused_at_once(self, capsys, command):
        # The triangle row is read before any census work at that length.
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--rows", "1000000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err == "gaptri: error: triangle has no row 1000000\n"

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_triangle_without_rows_is_refused(self, capsys, tmp_path, command):
        triangle = tmp_path / "t.txt"
        triangle.write_text("# no rows\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--triangle", str(triangle))
        assert (code, out) == (2, "")
        assert err == "gaptri: error: triangle has no rows\n"

    def test_bad_row_range(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--rows", "x..y")
        assert code == 2
        assert "row range" in err

    def test_reversed_row_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--rows", "5..2")
        assert code == 2

    @pytest.mark.parametrize(
        "option, text, message",
        [
            ("--rows", "\u0661..\u0663", "cannot parse row range {!r}; expected a..b"),
            (
                "--model",
                "gap<=\u0661; type=affine(\u0661,\u0662); bcount=*",
                "cannot parse model text {!r}",
            ),
            ("--model", "gap<=1; type=parity-paper; bcount=*\n", "cannot parse model text {!r}"),
        ],
        ids=["rows-arabic-indic-digits", "model-arabic-indic-digits", "model-trailing-newline"],
    )
    def test_non_ascii_digits_and_trailing_newline_are_refused(
        self, capsys, option, text, message
    ):
        code, out, err = run_cli(capsys, "verify", option, text)
        assert (code, out) == (2, "")
        assert err == "gaptri: error: " + message.format(text) + "\n"

    def test_signed_row_range_is_read_then_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--rows=-1..3")
        assert (code, out, err) == (2, "", "gaptri: error: row range needs 1 <= a <= b\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--rows", f"1..{OVER_LONG}"],
             f"cannot parse row range '1..{OVER_LONG}'; expected a..b"),
            (["verify", "--rows", OVER_LONG],
             f"cannot parse row range '{OVER_LONG}'; expected a..b"),
            (["obstruct", "--rows", f"{OVER_LONG}..{OVER_LONG}"],
             f"cannot parse row range '{OVER_LONG}..{OVER_LONG}'; expected a..b"),
            (["verify", "--model", f"gap<={OVER_LONG}; type=parity-paper; bcount=*"],
             f"cannot parse model text 'gap<={OVER_LONG}; type=parity-paper; bcount=*'"),
            (["verify", "--model", f"gap<=1; type=affine({OVER_LONG},1); bcount=*"],
             f"cannot parse model text 'gap<=1; type=affine({OVER_LONG},1); bcount=*'"),
            (["obstruct", "--model", f"gap<=1; type=even(1,{OVER_LONG})/odd(1,1); bcount=*"],
             f"cannot parse model text 'gap<=1; type=even(1,{OVER_LONG})/odd(1,1); bcount=*'"),
            (["enumerate", "-n", "3", "--model",
              f"gap<=1; type=parity-paper; bcount=1..{OVER_LONG}"],
             f"cannot parse model text 'gap<=1; type=parity-paper; bcount=1..{OVER_LONG}'"),
            (["ingest", "--bfile", BFILE_FIXTURE, "--row-rule", f"explicit:{OVER_LONG}"],
             f"bad explicit row rule 'explicit:{OVER_LONG}'"),
        ],
        ids=[
            "rows-end", "rows-single", "rows-both-ends", "model-gap", "model-affine",
            "model-even-odd", "model-bcount", "explicit-length",
        ],
    )
    def test_over_long_numbers_are_refused(self, capsys, default_int_limit, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"gaptri: error: {message}\n")

    @pytest.mark.parametrize("digits", [19, 4300], ids=["19-digits", "4300-digits"])
    @pytest.mark.parametrize(
        "type_text",
        ["affine({c},1)", "affine(1,-{c})", "even(1,1)/odd({c},1)", "even(1,-{c})/odd(1,1)"],
        ids=["affine-slope", "affine-offset", "odd-slope", "even-offset"],
    )
    def test_huge_type_coefficients_are_refused(self, capsys, default_int_limit, digits, type_text):
        # A coefficient of 10**18 or more could make a type index a*gap + b
        # too long to print; it is refused as model text instead.
        text = f"gap<=inf; type={type_text.format(c='9' * digits)}; bcount=*"
        code, out, err = run_cli(capsys, "verify", "--rows", "1..3", "--model", text)
        assert (code, out, err) == (2, "", f"gaptri: error: cannot parse model text {text!r}\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "-n", OVER_LONG],
            ["enumerate", "-n", OVER_LONG],
            ["search", "--top", OVER_LONG],
        ],
        ids=["stats-n", "enumerate-n", "search-top"],
    )
    def test_over_long_integer_options_are_refused(self, capsys, default_int_limit, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        option, value = argv[-2:]
        assert err.endswith(f": error: argument {option}: invalid int value: {value!r}\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("n", [14284, 14300])
    def test_census_counts_past_the_int_limit_print_in_full(
        self, capsys, tmp_path, default_int_limit, n
    ):
        # The full census at length n sums to 2**n - 1, which has more than
        # 4300 digits from n = 14285 on; it prints in full all the same.
        triangle, record = tmp_path / "ones.txt", tmp_path / "record.txt"
        triangle.write_text("1\n" * n, encoding="utf-8")
        model = "gap<=inf; type=affine(0,1); bcount=*"
        argv = ["--triangle", str(triangle), "--rows", str(n), "--model", model]
        code, out, err = run_cli(capsys, "verify", *argv, "--out", str(record))
        count = str(decimal.Decimal(2**n - 1))
        assert (code, err) == (1, "")
        assert f" 1:{count} " in out and f"k=1: {count} vs 1" in out
        assert record.read_text(encoding="utf-8") == (
            f"row={n} match=false predicted=1:{count} target=1\n"
        )

    @pytest.mark.parametrize(
        "option, text, rule, message",
        [
            ("--triangle", f"1\n1 {OVER_LONG}\n", None,
             f"line 2: non-integer token in '1 {OVER_LONG}'"),
            ("--bfile", f"1 {OVER_LONG}\n", "floor(n/2)+1",
             f"line 1: non-integer field in '1 {OVER_LONG}'"),
        ],
        ids=["triangle-token", "bfile-field"],
    )
    def test_over_long_file_integers_are_refused(
        self, capsys, tmp_path, default_int_limit, option, text, rule, message
    ):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = [option, str(path)] + (["--row-rule", rule] if rule else [])
        assert run_cli(capsys, "ingest", *argv) == (2, "", f"gaptri: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "-n", "\u0661"],
            ["stats", "-n", "1_0"],
            ["enumerate", "-n", "+3"],
            ["search", "--top", "\u0661"],
            ["search", "--top", "1_0"],
            ["search", "--top", " 1"],
        ],
        ids=[
            "n-arabic-indic-digit", "n-underscore", "n-plus-sign",
            "top-arabic-indic-digit", "top-underscore", "top-space",
        ],
    )
    def test_integer_options_read_ascii_digits_only(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        option, value = argv[-2:]
        assert err.endswith(f": error: argument {option}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize(
        "option, text, rule, message",
        [
            ("--triangle", "1\n1_0 \u0663\n", None, "line 2: non-integer token in '1_0 \u0663'"),
            ("--triangle", "+1\n", None, "line 1: non-integer token in '+1'"),
            ("--bfile", "1 1\n2 1_0\n", "floor(n/2)+1", "line 2: non-integer field in '2 1_0'"),
            ("--bfile", "\u0661 1\n", "floor(n/2)+1", "line 1: non-integer field in '\u0661 1'"),
            ("--bfile", "1 1\n", "explicit:1,\u0662", "bad explicit row rule 'explicit:1,\u0662'"),
            ("--bfile", "1 1\n", "explicit:1_0", "bad explicit row rule 'explicit:1_0'"),
        ],
        ids=[
            "triangle-underscore-and-digit", "triangle-plus-sign", "bfile-underscore",
            "bfile-arabic-indic-digit", "explicit-arabic-indic-digit", "explicit-underscore",
        ],
    )
    def test_input_integers_read_ascii_digits_only(
        self, capsys, tmp_path, option, text, rule, message
    ):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = [option, str(path)] + (["--row-rule", rule] if rule else [])
        code, out, err = run_cli(capsys, "ingest", *argv)
        assert (code, out, err) == (2, "", f"gaptri: error: {message}\n")

    @pytest.mark.parametrize(
        "command, option, text, rule, message",
        [
            ("ingest", "--triangle", "1\n1\u30002\n", None,
             "line 2: non-integer token in '1\\u30002'"),
            ("verify", "--triangle", "1\n1\u30002\n", None,
             "line 2: non-integer token in '1\\u30002'"),
            ("ingest", "--bfile", "1\u00a01\n", "floor(n/2)+1",
             "line 1: expected '<index> <value>', got '1\\xa01'"),
            # Only a byte-order mark that starts the file is skipped.
            ("ingest", "--triangle", "1\n\ufeff1 2\n", None,
             "line 2: non-integer token in '\\ufeff1 2'"),
            ("ingest", "--triangle", "1\n1 \ufeff2\n", None,
             "line 2: non-integer token in '1 \\ufeff2'"),
            ("ingest", "--triangle", "\ufeff\ufeff1\n", None,
             "line 1: non-integer token in '\\ufeff1'"),
            ("ingest", "--bfile", "1 1\n\ufeff2 1\n", "floor(n/2)+1",
             "line 2: non-integer field in '\\ufeff2 1'"),
        ],
        ids=["ingest-triangle-ideographic-space", "verify-triangle-ideographic-space",
             "ingest-bfile-no-break-space", "ingest-triangle-mark-at-line-start",
             "ingest-triangle-mark-at-token-start", "ingest-triangle-second-leading-mark",
             "ingest-bfile-mark-at-line-start"],
    )
    def test_input_tokens_split_on_ascii_blanks_only(
        self, capsys, tmp_path, command, option, text, rule, message
    ):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = [option, str(path)] + (["--row-rule", rule] if rule else [])
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out, err) == (2, "", f"gaptri: error: {message}\n")


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "gaptri", "verify", "--rows", "1..3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.count("yes") == 3

    def test_reader_closing_early_ends_listing_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaptri", "enumerate", "-n", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().split()[0] == b"sequence"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter; return its stdout's words."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


# Prints each gaptri module that has executed. A layer not yet executed is in
# sys.modules as a LazyLoader module, whose type is a ModuleType subclass.
# Only its type is read: vars() or any attribute access would execute it.
PRINT_EXECUTED = (
    "import sys, types; "
    "print(*(name for name, module in list(sys.modules.items()) "
    "if name.startswith('gaptri.') and type(module) is types.ModuleType))"
)


def test_import_loads_no_pool_and_no_dataclasses():
    # Every CLI call pays for what ``import gaptri.cli`` loads; the search
    # runs in one process and loads no pool, and no layer executes before
    # a command uses it.
    added = run_fresh(
        "import sys; before = set(sys.modules); import gaptri.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    assert "gaptri.cli" in added
    unwanted = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}
    assert not added & unwanted
    executed = run_fresh("import gaptri.cli; " + PRINT_EXECUTED)
    assert "gaptri.cli" in executed
    unexecuted = {"model", "triangle", "verify", "search", "listing"}
    assert not executed & {f"gaptri.{name}" for name in unexecuted}


@pytest.mark.parametrize(
    "argv, unexecuted",
    [
        (["stats", "-n", "5"], {"triangle", "verify", "search"}),
        (["enumerate", "-n", "3", "--model", "canonical"], {"triangle", "verify", "search"}),
        (["verify", "--rows", "1..3"], {"search"}),
        (["obstruct", "--rows", "4..5"], {"search"}),
        (["ingest"], {"model", "verify", "search"}),
    ],
    ids=["stats", "enumerate", "verify", "obstruct", "ingest"],
)
def test_command_executes_only_the_layers_it_runs(argv, unexecuted):
    executed = run_fresh(
        "import contextlib, io, gaptri.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert gaptri.cli.main({argv!r}) == 0\n" + PRINT_EXECUTED
    )
    assert "gaptri.cli" in executed
    assert ("gaptri.listing" in executed) == (argv[0] == "enumerate")
    assert not executed & {f"gaptri.{name}" for name in unexecuted}


#: Every name ``gaptri`` exports, by the layer that defines it.
EXPORTS = {
    "errors": (
        "EmptySequenceError GaptriError IndexGapError InvalidLengthError "
        "InvalidSequenceError InvalidSymbolError MissingRowError ModelParseError "
        "NotAFailureError TriangleParseError TruncatedRowError"
    ),
    "model": (
        "Affine Constant EvenOddAffine HalfFloor ModelSpec ParityFlip Threshold "
        "TypeHistogram TypeMap Unbounded canonical_model format_model is_valid "
        "max_type_count parse_model type_for_gap type_histogram type_of valid_set"
    ),
    "search": (
        "SearchFamily SearchResult default_family evaluate_candidate result_record "
        "run_search witness"
    ),
    "sequences": (
        "MAX_N BinarySequence GapStatistics count_by_gap enumerate_all gap_statistics "
        "parse_sequence"
    ),
    "triangle": (
        "CoefficientTriangle embedded_half_triangle format_triangle half_row_rule "
        "ingest_bfile parse_triangle required_type_count row_sum"
    ),
    "verify": (
        "ObstructionReport RowVerdict boundary_check obstruction_record "
        "obstruction_report verdict_record verify_row"
    ),
}


class TestPackageExports:
    @pytest.mark.parametrize(
        "layer, name", [(layer, name) for layer, names in EXPORTS.items() for name in names.split()]
    )
    def test_name_is_its_layers_object(self, layer, name):
        namespace = {}
        exec(f"from gaptri import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"gaptri.{layer}"), name)
        assert name in dir(gaptri)

    def test_all_lists_exactly_the_exports(self):
        assert sorted(gaptri.__all__) == sorted(" ".join(EXPORTS.values()).split())
        assert len(gaptri.__all__) == 59

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            gaptri.no_such_name
        with pytest.raises(ImportError):
            exec("from gaptri import no_such_name", {})

    def test_traced_layers_are_in_sys_modules_after_importing_the_cli(self):
        # perfbench's tracer imports gaptri.cli, then reads each layer it
        # wraps from sys.modules.
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        missing = run_fresh(
            f"import sys; sys.path.insert(0, {str(perfbench)!r}); "
            "from tracer import LAYERS; import gaptri.cli; "
            "print(*(layer for layer in LAYERS if f'gaptri.{layer}' not in sys.modules))"
        )
        assert not missing
