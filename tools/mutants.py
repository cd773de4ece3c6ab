"""Mutation check: every mutant listed below must fail one of its named tests.

Each row of ``MUTANTS`` names a file under ``src/``, a text that occurs in it
exactly once, the text that replaces it, and the test ids that must catch
the change. For each row the script copies ``src/`` into a temporary
directory, makes the replacement there, and runs pytest on the named tests
with that copy first on ``PYTHONPATH``. A mutant is killed when pytest
reports a failing test (exit status 1). First, the named tests must all
pass on an unmutated copy, so that a kill means the mutant caused it. Each
pytest run is stopped after TIMEOUT_S seconds, so a mutant that makes a test
hang is reported as TIMEOUT, not killed, instead of hanging the script.

Usage, from any directory, with pytest and hypothesis installed:

    python3 tools/mutants.py

Exits 0 when every mutant is killed; 1 when a mutant survives, when its old
text does not occur exactly once, when pytest ends in an error other than a
failing test or outlasts TIMEOUT_S, or when the unmutated copy fails a named
test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Longest one pytest run may take; the named tests take seconds.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


GOLDEN = "tests/test_cli.py::TestOutFile::test_search_out_matches_golden"
EQUALS_ONE_AT_A_TIME = (
    "tests/test_search.py::TestBehaviourClasses::test_equals_one_candidate_at_a_time"
)
ACCEPTANCE_02 = "tests/test_acceptance.py::test_02_failure_reproduction"
CENSUS = "tests/test_model.py::TestClosedFormCensus"
BIT_COUNT_WINDOW = "tests/test_model.py::TestBitCountWindow"
HISTOGRAM = "tests/test_model.py::TestTypeHistogram"
PLANTED_PAST_MAX_N = "tests/test_long_rows.py::TestPlantedPastMaxN"
ENUMERATE = "tests/test_cli.py::TestEnumerate"
RECORD_CHECKS = "tests/test_records.py::TestRecordChecks"
SPLITS_ON_ASCII_BLANKS = (
    "tests/test_triangle.py::TestNativeFormat::test_parse_splits_on_ascii_blanks_only",
    "tests/test_triangle.py::TestIngest::test_splits_on_ascii_blanks_only",
    "tests/test_cli.py::TestUsage::test_input_tokens_split_on_ascii_blanks_only",
)
OVER_LONG_NUMBERS = "tests/test_cli.py::TestUsage::test_over_long_numbers_are_refused"
LEADING_MARK = "tests/test_cli.py::TestIngest::test_leading_byte_order_mark_is_skipped"
REFERENCE = "tests/test_reference.py::test_verify_and_obstruct_records_equal_the_reference"
REFERENCE_SEARCH = "tests/test_reference.py::test_search_records_equal_the_reference"
TYPE_COUNT = (
    "tests/test_model.py::TestMaxTypeCount::test_equals_histogram_key_count",
    "tests/test_verify.py::TestTypeCountBound::test_closed_form",
    REFERENCE,
)
PAIR_CHECK_COUNTS = (
    "tests/test_search.py::TestBehaviourClasses::test_verifies_each_live_row_and_type_pair_once",
    "tests/test_cli.py::TestSearch::test_out_formats_only_the_printed_models",
)

MUTANTS = (
    Mutant(
        "a repeated row is not dropped",
        "gaptri/search.py",
        "dict.fromkeys(rows) if type_maps",
        "rows if type_maps",
        (EQUALS_ONE_AT_A_TIME,),
    ),
    Mutant(
        "the record end lists the even rows only",
        "gaptri/search.py",
        "even.get(m.even, ()) + odd.get(m.odd, ())",
        "even.get(m.even, ())",
        (GOLDEN, "tests/test_acceptance.py::test_08_search_certificate"),
    ),
    Mutant(
        "the ranking ignores the model text",
        "gaptri/search.py",
        "order = sorted(range(len(texts)), key=texts.__getitem__)",
        "order = list(range(len(texts)))",
        (GOLDEN, REFERENCE_SEARCH),
    ),
    Mutant(
        "the ranking ignores the score",
        "gaptri/search.py",
        "    order.sort(key=[len(m) for m in matches].__getitem__, reverse=True)\n",
        "",
        (GOLDEN, "tests/test_search.py::TestRunSearch::test_sorted_by_score_then_text"),
    ),
    Mutant(
        "the census reads one entry past the gap limit",
        "gaptri/model.py",
        "for g in range(1, limit + 1):",
        "for g in range(1, limit + 2):",
        (
            f"{CENSUS}::test_valid_total_equals_histogram_total",
            f"{HISTOGRAM}::test_negative_limit_counts_only_valid_sequences",
            "tests/test_acceptance.py::test_01_theorem_reproduction",
            REFERENCE,
        ),
    ),
    Mutant(
        "the census reads one entry short of the gap limit",
        "gaptri/model.py",
        "for g in range(1, limit + 1):",
        "for g in range(1, limit):",
        (
            f"{HISTOGRAM}::test_small_rows",
            f"{HISTOGRAM}::test_negative_limit_counts_only_valid_sequences",
            "tests/test_acceptance.py::test_01_theorem_reproduction",
            "tests/test_acceptance.py::test_08_search_certificate",
            REFERENCE,
        ),
    ),
    Mutant(
        "a gap limit of -1 reads the gap-0 entry",
        "gaptri/model.py",
        "    if limit < 0:\n        return\n",
        "    if limit < -1:\n        return\n",
        (f"{HISTOGRAM}::test_negative_limit_counts_only_valid_sequences",),
    ),
    Mutant(
        "the validity bounds drop the gap limit's n - 1 clip",
        "gaptri/model.py",
        "min(threshold.limit(n), n - 1)",
        "threshold.limit(n)",
        (f"{HISTOGRAM}::test_constant_at_least_n_minus_1_equals_unbounded", REFERENCE),
    ),
    Mutant(
        "the type count takes gap 0 for a window starting at 2 B's",
        "gaptri/model.py",
        "(lo == 1)",
        "(lo <= 2)",
        TYPE_COUNT,
    ),
    Mutant(
        "the type count lets one B give a gap of 1 or more",
        "gaptri/model.py",
        "max(lo, 2)",
        "max(lo, 1)",
        TYPE_COUNT,
    ),
    Mutant(
        "the type count misses the widest gap",
        "gaptri/model.py",
        "max(lo, 2) + 2",
        "max(lo, 2) + 1",
        TYPE_COUNT,
    ),
    Mutant(
        "the type count gives gaps of 1 or more to a one-B window",
        "gaptri/model.py",
        "(hi >= 2)",
        "(hi >= 1)",
        TYPE_COUNT,
    ),
    Mutant(
        "the type count realizes nothing under a gap limit of 0",
        "gaptri/model.py",
        "if limit >= 0 else 0",
        "if limit > 0 else 0",
        TYPE_COUNT,
    ),
    Mutant(
        "the type count ignores a type map of slope 0",
        "gaptri/model.py",
        "min(gaps, 1)",
        "gaps",
        TYPE_COUNT,
    ),
    Mutant(
        "a length below 1 is accepted",
        "gaptri/model.py",
        '    if n < 1:\n        raise ValueError("sequence length must be >= 1")\n',
        "",
        (
            f"{CENSUS}::test_length_below_one_is_rejected",
            "tests/test_model.py::TestMaxTypeCount::test_length_below_one_is_rejected",
        ),
    ),
    Mutant(
        "the bit-count walk yields every value when the window misses the full one",
        "gaptri/model.py",
        "if lo <= 0 and hi >= bits:",
        "if lo <= 0 and hi >= bits - 1:",
        (f"{BIT_COUNT_WINDOW}::test_equals_filter_for_every_window",),
    ),
    Mutant(
        "the bit-count walk takes a window below 0 set bits",
        "gaptri/model.py",
        "1 << bits if hi >= 0 else 0",
        "1 << bits",
        (f"{BIT_COUNT_WINDOW}::test_equals_filter_for_every_window",),
    ),
    Mutant(
        "a type-map coefficient of 10**18 or more is accepted",
        "gaptri/model.py",
        "        if max(map(abs, type_map.even + type_map.odd)) >= 10**18:\n"
        "            raise ValueError(text)",
        "        if False:\n            pass",
        (
            "tests/test_cli.py::TestUsage::test_huge_type_coefficients_are_refused",
            "tests/test_model.py::TestTextForm::test_coefficients_stay_below_ten_to_the_eighteen",
        ),
    ),
    Mutant(
        "Pascal's rule drops the term entering at the window's low end",
        "gaptri/model.py",
        "s = 2 * s - out + into",
        "s = 2 * s - out",
        (
            f"{CENSUS}::test_weights_equal_scan",
            f"{CENSUS}::test_weights_equal_binomial_sums_past_max_n",
            REFERENCE,
        ),
    ),
    Mutant(
        "the binomial leaving the window is carried with its divisor off by one",
        "gaptri/model.py",
        "out * g // (g - b)",
        "out * g // (g - b + 1)",
        (
            f"{CENSUS}::test_weights_equal_scan",
            f"{CENSUS}::test_weights_equal_binomial_sums_past_max_n",
            REFERENCE,
        ),
    ),
    Mutant(
        "the binomial entering the window is carried with its divisor off by one",
        "gaptri/model.py",
        "into * g // (g - a + 1)",
        "into * g // (g - a + 2)",
        (
            f"{CENSUS}::test_weights_equal_scan",
            f"{CENSUS}::test_weights_equal_binomial_sums_past_max_n",
            REFERENCE,
        ),
    ),
    Mutant(
        "the census window starts one B-count high",
        "gaptri/model.py",
        "max(lo - 2, 0)",
        "max(lo - 1, 0)",
        (
            f"{CENSUS}::test_weights_equal_scan",
            f"{CENSUS}::test_weights_equal_binomial_sums_past_max_n",
            f"{HISTOGRAM}::test_against_string_oracle",
            REFERENCE,
        ),
    ),
    Mutant(
        "the type counts keep a census entry of 0",
        "gaptri/model.py",
        "        if weight:\n"
        "            k = a * gap + b\n"
        "            counts[k] = counts.get(k, 0) + weight\n",
        "        k = a * gap + b\n        counts[k] = counts.get(k, 0) + weight\n",
        (REFERENCE, REFERENCE_SEARCH),
    ),
    Mutant(
        "a one-B window counts the sequences with more B's",
        "gaptri/model.py",
        "a == 0 <= b",
        "a == 0",
        (
            f"{CENSUS}::test_weights_equal_scan",
            "tests/test_acceptance.py::test_08_search_certificate",
            REFERENCE,
        ),
    ),
    Mutant(
        "a model spec skips its checks on _replace and _make",
        "gaptri/model.py",
        '_Checked, namedtuple("ModelSpec",',
        'namedtuple("ModelSpec",',
        (f"{RECORD_CHECKS}::test_replace_refuses", f"{RECORD_CHECKS}::test_make_refuses"),
    ),
    Mutant(
        "a listing block spans one low bit too many",
        "gaptri/listing.py",
        "bits = min(most, w)",
        "bits = min(most + 1, w)",
        (f"{ENUMERATE}::test_rows_stream_in_bounded_writes",),
    ),
    Mutant(
        "a listing block key ignores the B's of the high part",
        "gaptri/listing.py",
        "key = mh.bit_count() + 1 if show_bcount else 1",
        "key = 1",
        (
            "tests/test_cli.py::TestValidCodes::test_top_window_is_output_sized",
            f"{ENUMERATE}::test_narrow_valid_listing_writes_are_bounded",
            f"{ENUMERATE}::test_split_blocks_equal_buffered_oracle",
        ),
    ),
    Mutant(
        "the full listing's window stops one gap short",
        "gaptri/listing.py",
        "(n - 1, 0, n)",
        "(n - 2, 0, n)",
        (
            f"{ENUMERATE}::test_n2_golden_table",
            "tests/test_cli.py::TestByteContract::test_digest[enumerate-17]",
        ),
    ),
    Mutant(
        "a listing row's cells start one column late",
        "gaptri/listing.py",
        "[widths[0] - n, *widths[1:]]",
        "[widths[0] - n + 1, *widths[1:]]",
        (
            f"{ENUMERATE}::test_n2_golden_table",
            "tests/test_cli.py::TestByteContract::test_digest[enumerate-17]",
        ),
    ),
    Mutant(
        "enumerate lists valid rows without a model",
        "gaptri/cli.py",
        "    if args.valid_only and spec is None:\n"
        '        raise ValueError("--valid-only requires --model")\n',
        "",
        (f"{ENUMERATE}::test_valid_only_refusal_order",),
    ),
    Mutant(
        "the package executes the search layer on import",
        "gaptri/__init__.py",
        'search = _lazy_layer("search")',
        "from . import search",
        ("tests/test_cli.py::test_import_loads_no_pool_and_no_dataclasses",),
    ),
    Mutant(
        "an exported name is looked up in the wrong layer",
        "gaptri/__init__.py",
        'run_search witness""",\n    sequences: """MAX_N',
        'run_search""",\n    sequences: """witness MAX_N',
        (
            "tests/test_cli.py::TestPackageExports::test_name_is_its_layers_object"
            "[search-witness]",
        ),
    ),
    Mutant(
        "an absent entry is spelled another way",
        "gaptri/verify.py",
        'return "absent"',
        'return "missing"',
        (
            ACCEPTANCE_02,
            "tests/test_cli.py::TestVerify::test_row_four_fails_with_detail",
            "tests/test_search.py::TestWitness::test_well_typed_row_has_no_prefix",
        ),
    ),
    Mutant(
        "a row compares only the predicted keys",
        "gaptri/verify.py",
        "counts.keys() | target.keys()",
        "counts.keys()",
        (ACCEPTANCE_02, "tests/test_verify.py::TestVerifyRow::test_row4_mismatch_detail"),
    ),
    Mutant(
        "candidates that match as many rows share one record end",
        "gaptri/search.py",
        'shared = {key: (frozenset(key), _record_end(len(key), key) + "\\n") '
        "for key in set(matches)}",
        'ends = {len(key): _record_end(len(key), key) + "\\n" for key in set(matches)}; '
        "shared = {key: (frozenset(key), ends[len(key)]) for key in set(matches)}",
        (GOLDEN, "tests/test_cli.py::TestByteContract::test_digest[search-table-9]"),
    ),
    Mutant(
        "the matched rows are not sorted",
        "gaptri/search.py",
        "map(str, sorted(rows))",
        "map(str, rows)",
        (GOLDEN,),
    ),
    Mutant(
        "every row is checked, whatever its sum",
        "gaptri/search.py",
        "if left == 0:",
        "if True:",
        PAIR_CHECK_COUNTS,
    ),
    Mutant(
        "the search reads every census whole",
        "gaptri/search.py",
        "            if left < 0:\n                break\n",
        "            if left < 0:\n                pass\n",
        (f"{PLANTED_PAST_MAX_N}::test_search_reads_a_census_no_further_than_the_row_sum",),
    ),
    Mutant(
        "a group's B-count window goes unchecked",
        "gaptri/search.py",
        "    _check_window(b_count)\n",
        "",
        ("tests/test_search.py::TestRunSearch::test_bad_window_is_refused",),
    ),
    Mutant(
        "a row check compares only the type keys",
        "gaptri/search.py",
        "_type_counts(weights, pair) == target",
        "_type_counts(weights, pair).keys() == target.keys()",
        (GOLDEN, "tests/test_cli.py::TestByteContract::test_digest[search-table-9]"),
    ),
    Mutant(
        "the bit-count walk steps one value at a time past too many set bits",
        "gaptri/model.py",
        "m += m & -m",
        "m += 1",
        ("tests/test_model.py::TestBitCountWindow::test_steps_over_runs_with_too_many_bits",),
    ),
    Mutant(
        "the bit-count walk steps one value at a time past too few set bits",
        "gaptri/model.py",
        "m |= m + 1",
        "m += 1",
        ("tests/test_model.py::TestBitCountWindow::test_steps_over_runs_with_too_few_bits",),
    ),
    Mutant(
        "a row with as many types as entries counts as obstructed",
        "gaptri/verify.py",
        "provided < required",
        "provided <= required",
        (
            "tests/test_verify.py::TestObstruction::test_row3_not_obstructed",
            "tests/test_search.py::TestWitness",
        ),
    ),
    Mutant(
        "a census count past the int-string limit has no fallback spelling",
        "gaptri/verify.py",
        "return str(Decimal(entry))",
        "return str(entry)",
        ("tests/test_cli.py::TestUsage::test_census_counts_past_the_int_limit_print_in_full",),
    ),
    Mutant(
        "ingest prints its text even with --out",
        "gaptri/cli.py",
        "[text] if args.out is None else []",
        "[text]",
        ("tests/test_cli.py::TestIngest::test_out_file_quiet_stdout",),
    ),
    Mutant(
        "search prints one ranked row too many",
        "gaptri/cli.py",
        "lines[: args.top]",
        "lines[: args.top + 1]",
        (
            "tests/test_cli.py::TestByteContract::test_digest[search-table-9]",
            "tests/test_cli.py::TestSearch::test_out_formats_only_the_printed_models",
        ),
    ),
    Mutant(
        "--out replaces a link",
        "gaptri/cli.py",
        "os.path.realpath(path) if path else path",
        "path",
        ("tests/test_cli.py::TestOutFile::test_symlink_is_written_through",),
    ),
    Mutant(
        "--out replaces a pipe",
        "gaptri/cli.py",
        "        if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):\n"
        '            with open(real, "w", encoding="utf-8") as handle:\n'
        "                handle.writelines(lines)\n"
        "            return\n",
        "",
        ("tests/test_cli.py::TestOutFile::test_fifo_is_written_into",),
    ),
    Mutant(
        "a line's tokens are split on any whitespace",
        "gaptri/triangle.py",
        're.split("[ \\t]+", stripped)',
        're.split(r"\\s+", stripped)',
        SPLITS_ON_ASCII_BLANKS,
    ),
    Mutant(
        "a line is stripped of any whitespace",
        "gaptri/triangle.py",
        'raw.strip(" \\t\\r\\n")',
        "raw.strip()",
        SPLITS_ON_ASCII_BLANKS,
    ),
    Mutant(
        "a row range stops one row short",
        "gaptri/cli.py",
        "range(lo, hi + 1)",
        "range(lo, hi)",
        (
            GOLDEN,
            "tests/test_cli.py::TestVerify::test_record_file",
            "tests/test_cli.py::TestObstruct::test_records",
        ),
    ),
    Mutant(
        "a row range's ends are read by int()",
        "gaptri/cli.py",
        "map(sequences._read_int, (first,",
        "map(int, (first,",
        (
            "tests/test_cli.py::TestUsage::test_non_ascii_digits_and_trailing_newline_are_refused"
            "[rows-arabic-indic-digits]",
        ),
    ),
    Mutant(
        "an over-long model number escapes the model text refusal",
        "gaptri/model.py",
        '    except ValueError:\n        raise ModelParseError(f"cannot parse model text',
        '    except TypeError:\n        raise ModelParseError(f"cannot parse model text',
        tuple(f"{OVER_LONG_NUMBERS}[model-{part}]" for part in ("gap", "affine", "bcount")),
    ),
    Mutant(
        "a --triangle file's byte-order mark is read as text",
        "gaptri/cli.py",
        'open(args.triangle, encoding="utf-8-sig")',
        'open(args.triangle, encoding="utf-8")',
        (f"{LEADING_MARK}[triangle]",),
    ),
    Mutant(
        "a --bfile file's byte-order mark is read as text",
        "gaptri/cli.py",
        'open(args.bfile, encoding="utf-8-sig")',
        'open(args.bfile, encoding="utf-8")',
        (f"{LEADING_MARK}[bfile]",),
    ),
    Mutant(
        "an error keeps no fields",
        "gaptri/errors.py",
        "            vars(self).update(zip(self.fields, args))\n",
        "",
        ("tests/test_search.py::TestRunSearch::test_missing_row_crosses_the_pool_intact",),
    ),
    Mutant(
        "an error's text ignores its fields",
        "gaptri/errors.py",
        "self.text.format(*self.args)",
        "self.text",
        ("tests/test_cli.py::TestUsage::test_rows_past_the_triangle_are_refused_at_once",),
    ),
    Mutant(
        "an error takes any number of arguments",
        "gaptri/errors.py",
        "if len(args) != len(self.fields):",
        "if False:",
        ("tests/test_records.py::test_error_with_fields_refuses_a_wrong_argument_count",),
    ),
    Mutant(
        "candidates walk the type maps before the B-count options",
        "gaptri/search.py",
        "        for threshold, b_count in product(self.thresholds, self.b_count_options):\n"
        "            for type_map in self.type_maps:\n"
        "                yield ModelSpec(threshold, type_map, b_count)\n",
        "        for parts in product(self.thresholds, self.type_maps, self.b_count_options):\n"
        "            yield ModelSpec(*parts)\n",
        ("tests/test_search.py::TestRanking::test_candidates_come_in_search_order",),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status for ``tests`` run against the package in ``src``,
    or None when the run outlasts TIMEOUT_S and is stopped."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="gaptri-mutants-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, named) != 0:
            print("unmutated copy fails a named test or times out; no mutant was run")
            return 1
        for mutant in MUTANTS:
            target = src / mutant.path
            original = target.read_text(encoding="utf-8")
            found = original.count(mutant.old)
            if found != 1:
                print(f"NOT APPLIED  {mutant.name}: {mutant.path} has its old text {found} times")
                failures += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                status = run_tests(src, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if status == 1:
                print(f"killed       {mutant.name}")
            else:
                verdict = {0: "SURVIVED", None: "TIMEOUT"}.get(status, f"ERROR {status}")
                print(f"{verdict:<12} {mutant.name}")
                failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
