from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptri import (
    CoefficientTriangle,
    IndexGapError,
    MissingRowError,
    TriangleParseError,
    TruncatedRowError,
    embedded_half_triangle,
    format_triangle,
    half_row_rule,
    ingest_bfile,
    parse_triangle,
    required_type_count,
    row_sum,
)

BFILE_FIXTURE = Path(__file__).parent / "data" / "b223168_rows_1_9.txt"

ENTRIES = st.integers(1, 10**30)


def rows_of_lengths(lengths):
    return st.tuples(*(st.tuples(*[ENTRIES] * k) for k in lengths))


# Any ragged triangle: row lengths never decrease, entries are >= 1.
NATIVE_ROWS = st.lists(st.integers(1, 6), max_size=10).map(sorted).flatmap(rows_of_lengths)
# Triangles shaped like the order-1/2 one, as the b-file row rule chunks them.
HALF_ROWS = st.integers(0, 14).flatmap(
    lambda height: rows_of_lengths([half_row_rule(n) for n in range(1, height + 1)])
)

# Blanks other than ASCII space and tab: str.split() and str.strip() treat
# each one as whitespace, the triangle formats do not.
OTHER_BLANKS = pytest.mark.parametrize(
    "blank",
    ["\u3000", "\u00a0", "\u2003", "\x0b", "\x0c", "\x1c"],
    ids=["ideographic-space", "no-break-space", "em-space", "vt", "ff", "file-separator"],
)
PLACES = pytest.mark.parametrize("place", ["between", "leading", "trailing"])


def place_blank(blank, place, first, second):
    """A two-token line with ``blank`` between, before or after its tokens."""
    return {
        "between": f"{first}{blank}{second}",
        "leading": f"{blank}{first} {second}",
        "trailing": f"{first} {second}{blank}",
    }[place]


EMBEDDED_ROWS = (
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


class TestEmbedded:
    def test_rows_exact(self):
        t = embedded_half_triangle()
        assert t.rows == EMBEDDED_ROWS
        assert t.order_label == "1/2"

    def test_individual_rows(self):
        t = embedded_half_triangle()
        assert t.row(1) == (1,)
        assert t.row(4) == (3, 12, 4)
        assert t.row(9) == (945, 2520, 1512, 288, 16)

    def test_missing_row(self):
        t = embedded_half_triangle()
        with pytest.raises(MissingRowError):
            t.row(10)
        with pytest.raises(MissingRowError):
            t.row(0)


class TestRowMeasures:
    def test_required_type_count(self):
        t = embedded_half_triangle()
        assert required_type_count(t, 4) == 3
        assert required_type_count(t, 6) == 4
        assert required_type_count(t, 1) == 1

    def test_required_matches_shape_rule(self):
        t = embedded_half_triangle()
        for n in range(1, 10):
            assert required_type_count(t, n) == half_row_rule(n)

    def test_row_sums(self):
        t = embedded_half_triangle()
        assert row_sum(t, 3) == 5
        assert row_sum(t, 4) == 19
        assert row_sum(t, 2) == 3

    def test_sums_versus_odd_numbers(self):
        t = embedded_half_triangle()
        for n in range(1, 4):
            assert row_sum(t, n) == 2 * n - 1
        for n in range(4, 10):
            assert row_sum(t, n) > 2 * n - 1


class TestInvariants:
    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            CoefficientTriangle("t", ((1,), (0, 2)))

    def test_shrinking_rows_rejected(self):
        with pytest.raises(ValueError):
            CoefficientTriangle("t", ((1, 2), (3,)))

    def test_empty_triangle_allowed(self):
        assert CoefficientTriangle("t", ()).height == 0


class TestIngest:
    def test_rows_complete_at_boundary(self):
        lines = ["1 1", "2 1", "3 2", "4 3", "5 2"]
        t = ingest_bfile(lines, half_row_rule)
        assert t.rows == ((1,), (1, 2), (3, 2))

    def test_truncated_mid_row(self):
        lines = ["1 1", "2 1", "3 2", "4 3"]
        with pytest.raises(TruncatedRowError) as info:
            ingest_bfile(lines, half_row_rule)
        assert info.value.row == 3

    def test_empty_stream(self):
        t = ingest_bfile([], half_row_rule)
        assert t.rows == ()

    def test_malformed_value_reports_line(self):
        lines = ["1 1", "2 1", "3 2", "4 3", "5 2", "6 3", "7 abc"]
        with pytest.raises(TriangleParseError) as info:
            ingest_bfile(lines, half_row_rule)
        assert info.value.line == 7

    def test_extra_field_is_parse_error(self):
        with pytest.raises(TriangleParseError):
            ingest_bfile(["1 1 9"], half_row_rule)

    def test_index_gap(self):
        with pytest.raises(IndexGapError) as info:
            ingest_bfile(["1 1", "3 2"], half_row_rule)
        assert (info.value.expected, info.value.found) == (2, 3)

    def test_first_index_must_be_one(self):
        with pytest.raises(IndexGapError):
            ingest_bfile(["2 1"], half_row_rule)

    def test_comments_and_whitespace_tolerated(self):
        lines = [
            "# header", "", "  1 1  ", "\t2 1", "3 2", "# trailing",
            "4  \t 3\t\r\n", " \t5\t2 \r\n", "\r\n", " \t# indented\r\n",
        ]
        t = ingest_bfile(lines, half_row_rule)
        assert t.rows == ((1,), (1, 2), (3, 2))

    @OTHER_BLANKS
    @PLACES
    def test_splits_on_ascii_blanks_only(self, blank, place):
        with pytest.raises(TriangleParseError) as info:
            ingest_bfile(["1 1", place_blank(blank, place, 2, 1)], half_row_rule)
        assert info.value.line == 2

    def test_fixture_matches_embedded(self):
        with open(BFILE_FIXTURE, encoding="utf-8") as handle:
            t = ingest_bfile(handle, half_row_rule, order_label="1/2")
        assert t == embedded_half_triangle()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=HALF_ROWS)
    def test_bfile_round_trip(self, rows):
        terms = [entry for row in rows for entry in row]
        lines = ["# A223168"] + [f"{i} {value}" for i, value in enumerate(terms, start=1)]
        assert ingest_bfile(lines, half_row_rule, order_label="1/2") == CoefficientTriangle(
            "1/2", rows
        )

    def test_explicit_rule_callable(self):
        lengths = [1, 2, 2]
        t = ingest_bfile(["1 5", "2 6", "3 7"], lambda n: lengths[n - 1])
        assert t.rows == ((5,), (6, 7))


class TestNativeFormat:
    def test_serialize_parse_round_trip(self):
        t = embedded_half_triangle()
        text = format_triangle(t)
        assert parse_triangle(text.splitlines(), order_label="1/2") == t

    def test_serialize_is_byte_stable(self):
        t = embedded_half_triangle()
        text = format_triangle(t)
        again = format_triangle(parse_triangle(text.splitlines(), order_label="1/2"))
        assert again == text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=NATIVE_ROWS)
    def test_round_trip_arbitrary_triangles(self, rows):
        t = CoefficientTriangle("", rows)
        text = format_triangle(t)
        assert parse_triangle(text.splitlines(keepends=True)) == t
        assert format_triangle(parse_triangle(text.splitlines())) == text

    def test_canonical_shape(self):
        assert format_triangle(CoefficientTriangle("x", ((1,), (2, 3)))) == "1\n2 3\n"
        assert format_triangle(CoefficientTriangle("x", ())) == ""

    def test_parse_skips_comments(self):
        t = parse_triangle(["# c", "1", "", "2 3"])
        assert t.rows == ((1,), (2, 3))

    def test_comments_and_whitespace_tolerated(self):
        lines = [
            "# header", "", "  1  ", "\t1 2", "# trailing",
            "3  \t 2\t\r\n", " \t3\t12 4 \r\n", "\r\n", " \t# indented\r\n",
        ]
        assert parse_triangle(lines).rows == ((1,), (1, 2), (3, 2), (3, 12, 4))

    @OTHER_BLANKS
    @PLACES
    def test_parse_splits_on_ascii_blanks_only(self, blank, place):
        with pytest.raises(TriangleParseError, match="non-integer token") as info:
            parse_triangle(["1", place_blank(blank, place, 1, 2)])
        assert info.value.line == 2

    def test_parse_rejects_junk(self):
        with pytest.raises(TriangleParseError) as info:
            parse_triangle(["1", "2 x"])
        assert info.value.line == 2

    @pytest.mark.parametrize("token", ["\u0661", "1_0", "+1", "--1", "-", "\u00b2"])
    def test_parse_reads_ascii_digits_only(self, token):
        with pytest.raises(TriangleParseError, match="non-integer token"):
            parse_triangle(["1", f"1 {token}"])
        with pytest.raises(TriangleParseError, match="non-integer field"):
            ingest_bfile(["1 1", f"2 {token}"], half_row_rule)

    def test_ingest_then_serialize_is_canonical(self):
        with open(BFILE_FIXTURE, encoding="utf-8") as handle:
            t = ingest_bfile(handle, half_row_rule)
        assert format_triangle(t) == format_triangle(embedded_half_triangle())
