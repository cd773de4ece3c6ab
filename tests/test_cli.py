import errno
import io
import os
import stat
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from gaptri import (
    ModelSpec,
    count_by_gap,
    default_family,
    embedded_half_triangle,
    enumerate_all,
    format_triangle,
    gap_statistics,
    is_valid,
    parse_model,
    type_for_gap,
    valid_set,
)
from gaptri import cli
from gaptri.cli import _k_header, _threshold_text, main
from gaptri.model import valid_codes

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


@lru_cache(maxsize=1)
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


TOO_LONG = "gaptri: error: {} rows could exceed {} bytes; list fewer with --valid-only\n"

GRID_THRESHOLDS = ["0", "1", "2", "3", "n/2", "inf"]
GRID_TYPE_MAPS = [
    "parity-paper", "affine(1,1)", "affine(-3,2)", "even(-1,2)/odd(2,-3)", "affine(12,-100)",
]
GRID_WINDOWS = ["*", "1..1", "1..2", "2..2", "3..5", "7..9", "2..20"]


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
        monkeypatch.setattr(cli, "_LISTING_BYTES", bound - 1)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == TOO_LONG.format(rows, bound - 1)
        monkeypatch.setattr(cli, "_LISTING_BYTES", bound)
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

    def test_rows_stream_in_bounded_writes(self, monkeypatch):
        class Sink(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        model = "gap<=inf; type=affine(1,1); bcount=*"
        assert main(["enumerate", "-n", "16", "--model", model]) == 0
        assert len(sink.sizes) > 1
        assert max(sink.sizes) <= 256 * 1024
        assert sink.getvalue() == oracle_render(*oracle_enumerate(16, model), "table")

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
        # make the generator step over runs of too few and too many B's.
        family = default_family()
        for n in range(1, 13):
            windows = family.b_count_options + ((3, 5), (4, 4), (2, n), (n, n))
            for threshold in family.thresholds:
                for window in windows:
                    if window is not None and window[0] > window[1]:
                        continue
                    model = ModelSpec(threshold, family.type_maps[0], window)
                    expected = [seq.code for seq in valid_set(model, n)]
                    assert list(valid_codes(model, n)) == expected, (model, n)

    def test_narrow_window_is_output_sized(self, capsys):
        started = time.perf_counter()
        model = "gap<=inf; type=affine(1,1); bcount=1..1"
        code, out, _ = run_cli(capsys, "enumerate", "-n", "30", "--model", model, "--valid-only")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(out.splitlines()) == 1 + 30
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

    def test_directory_target_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        code, out, err = run_cli(capsys, "obstruct", "--rows", "4", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"gaptri: error: [Errno {errno.EISDIR}] Is a directory: {str(target)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]


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

    def test_bad_row_range(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--rows", "x..y")
        assert code == 2
        assert "row range" in err

    def test_reversed_row_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--rows", "5..2")
        assert code == 2


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


def test_import_loads_no_pool_and_no_dataclasses():
    # Every CLI call pays for what ``import gaptri.cli`` loads; the process
    # pool is loaded only by a search with workers > 1.
    script = (
        "import sys; before = set(sys.modules); import gaptri.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "gaptri.cli" in added
    unwanted = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}
    assert not added & unwanted
