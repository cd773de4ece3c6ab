"""Rows beyond the enumeration ceiling MAX_N = 30.

Histograms come from the closed-form census, so ``verify``, ``obstruct`` and
``search`` accept every row a triangle has. The triangles here are planted
from a model by a binomial-sum oracle written in this module, not by gaptri.
"""

import time
import tracemalloc
from math import comb

from gaptri import (
    MAX_N,
    Affine,
    Constant,
    HalfFloor,
    ModelSpec,
    ParityFlip,
    SearchFamily,
    Unbounded,
    boundary_check,
    canonical_model,
    default_family,
    format_model,
    format_triangle,
    obstruction_report,
    parse_triangle,
    run_search,
)
from gaptri import search as search_module
from gaptri.cli import main

PLANTED = ModelSpec(HalfFloor(), Affine(1, 1), (1, 3))
ROWS = 40


def planted_row(n):
    # Row n of PLANTED's triangle, column k = gap + 1 for gap = 0..n // 2:
    # n sequences have gap 0 (one B), and (n - g) * C(g - 1, b - 2) have
    # gap g >= 1 and b B's, of which b = 2 and b = 3 lie in the window.
    return [n] + [(n - g) * (comb(g - 1, 0) + comb(g - 1, 1)) for g in range(1, n // 2 + 1)]


def planted_triangle(rows):
    return parse_triangle([" ".join(map(str, planted_row(n))) for n in range(1, rows + 1)])


class TestPlantedPastMaxN:
    def test_verify_matches_every_row(self):
        assert ROWS > MAX_N
        verdicts = boundary_check(PLANTED, planted_triangle(ROWS), ROWS)
        assert [v.n for v in verdicts if v.matches] == list(range(1, ROWS + 1))

    def test_cli_verify_matches_every_row(self, capsys, tmp_path):
        path = tmp_path / "planted.txt"
        path.write_text(format_triangle(planted_triangle(ROWS)), encoding="utf-8")
        code = main(["verify", "--model", format_model(PLANTED), "--triangle", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["yes"] * ROWS

    def test_obstruct_reports_two_canonical_types(self):
        triangle = planted_triangle(ROWS)
        for n in range(2, ROWS + 1):
            report = obstruction_report(canonical_model(), triangle, n)
            assert report.provided_types == 2
            assert report.required_types == n // 2 + 1
            assert report.obstructed == (n >= 4)

    def test_search_ranks_planted_model_first(self):
        family = SearchFamily(
            thresholds=(Constant(1), HalfFloor(), Unbounded()),
            type_maps=(ParityFlip(), Affine(1, 1)),
            b_count_options=(None, (1, 3)),
        )
        results = run_search(family, planted_triangle(ROWS), range(1, ROWS + 1))
        assert results[0].model == PLANTED
        assert results[0].score == ROWS
        assert results[1].score < ROWS

    def test_census_memo_computes_each_row_and_window_once(self, monkeypatch):
        # The census keeps no memo. The search reads it once per (threshold,
        # window) group and row, and checks each type pair against that read.
        rows = 100
        family = SearchFamily(
            thresholds=(Constant(1), HalfFloor(), Unbounded()),
            type_maps=(ParityFlip(), Affine(1, 1)),
            b_count_options=(None, (1, 1), (1, 3)),
        )
        calls = []
        census = search_module._valid_weights

        def counted(threshold, window, n):
            calls.append(n)
            return census(threshold, window, n)

        monkeypatch.setattr(search_module, "_valid_weights", counted)
        run_search(family, planted_triangle(rows), range(1, rows + 1))
        groups = len(family.thresholds) * len(family.b_count_options)
        assert len(calls) == groups * rows == 900

    def test_search_results_keep_no_row_histograms(self):
        rows = 100
        family = SearchFamily(
            thresholds=(Constant(1), HalfFloor(), Unbounded()),
            type_maps=(ParityFlip(), Affine(1, 1)),
            b_count_options=(None, (1, 3)),
        )
        triangle = planted_triangle(rows)
        run_search(family, triangle, range(1, rows + 1))  # builds any lazy state untraced
        tracemalloc.start()
        try:
            results = run_search(family, triangle, range(1, rows + 1))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results[0].model == PLANTED
        # Verdicts kept per candidate and row would hold about 5 MB here.
        assert retained < 1 << 20

    def test_search_reads_a_census_no_further_than_the_row_sum(self):
        # Every row of an all-ones triangle sums to 1, so each (group, row)
        # reads its census only until the running sum passes 1, a few entries.
        # Reading every census whole grows about as rows**3: 12 s at 4,000
        # rows on 2 vCPUs under Python 3.11.
        rows = 4000
        triangle = parse_triangle(["1"] * rows)
        started = time.perf_counter()
        lines, _ = search_module.rank_search(default_family(), triangle, range(1, rows + 1))
        elapsed = time.perf_counter() - started
        assert len(lines) == 6216
        assert all(line.endswith(("\t1\t1\n", "\t1\t2\n", "\t0\t-\n")) for line in lines)
        assert elapsed < 1
