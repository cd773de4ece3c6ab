from itertools import product

import pytest

from gaptri import (
    BinarySequence,
    EmptySequenceError,
    InvalidLengthError,
    InvalidSymbolError,
    count_by_gap,
    enumerate_all,
    gap_statistics,
    parse_sequence,
)


def string_gap(text):
    # Independent oracle: positions of B computed on the raw text.
    positions = [i + 1 for i, ch in enumerate(text) if ch == "B"]
    if not positions:
        return None
    return positions[0], positions[-1], positions[-1] - positions[0]


def all_texts(n):
    return ["".join(t) for t in product("RB", repeat=n)]


class TestParse:
    def test_single_b(self):
        seq = parse_sequence("B")
        assert seq.n == 1
        assert seq.symbols == ("B",)

    def test_rbb(self):
        assert parse_sequence("RBB").symbols == ("R", "B", "B")

    def test_invalid_symbol_position(self):
        with pytest.raises(InvalidSymbolError) as info:
            parse_sequence("RXB")
        assert info.value.position == 2

    # int(..., 2) alone would read each of these: "_" between digits,
    # surrounding whitespace, another script's digit.
    @pytest.mark.parametrize(
        "text, position", [("R_B", 2), (" RB", 1), ("RB\n", 3), ("R\u0661", 2)]
    )
    def test_refuses_what_int_would_read(self, text, position):
        with pytest.raises(InvalidSymbolError) as info:
            parse_sequence(text)
        assert (info.value.position, info.value.found) == (position, text[position - 1])

    def test_empty(self):
        with pytest.raises(EmptySequenceError):
            parse_sequence("")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_text_round_trip(self, n):
        for text in all_texts(n):
            assert str(parse_sequence(text)) == text

    def test_no_third_symbol_representable(self):
        with pytest.raises(ValueError):
            BinarySequence(3, 8)
        with pytest.raises(ValueError):
            BinarySequence(0, 0)


class TestEnumerate:
    def test_n1(self):
        assert [str(s) for s in enumerate_all(1)] == ["R", "B"]

    def test_n2(self):
        assert [str(s) for s in enumerate_all(2)] == ["RR", "RB", "BR", "BB"]

    def test_n10_stream_length(self):
        assert sum(1 for _ in enumerate_all(10)) == 1024

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_distinct_and_order(self, n):
        seqs = list(enumerate_all(n))
        assert len(seqs) == 2**n
        assert len(set(seqs)) == 2**n
        texts = [str(s) for s in seqs]
        assert texts == sorted(texts, key=lambda t: [c == "B" for c in t])

    def test_invalid_lengths(self):
        with pytest.raises(InvalidLengthError):
            list(enumerate_all(0))
        with pytest.raises(InvalidLengthError):
            list(enumerate_all(31))


class TestGapStatistics:
    def test_brb(self):
        stats = gap_statistics(parse_sequence("BRB"))
        assert (stats.first_b, stats.last_b, stats.gap) == (1, 3, 2)

    def test_rbr(self):
        stats = gap_statistics(parse_sequence("RBR"))
        assert (stats.first_b, stats.last_b, stats.gap) == (2, 2, 0)

    def test_no_b_is_absent_not_error(self):
        assert gap_statistics(parse_sequence("RRR")) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_string_oracle(self, n):
        for text in all_texts(n):
            stats = gap_statistics(parse_sequence(text))
            expected = string_gap(text)
            if expected is None:
                assert stats is None
            else:
                assert (stats.first_b, stats.last_b, stats.gap) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gap_bounds_and_zero_iff_single_position(self, n):
        for seq in enumerate_all(n):
            stats = gap_statistics(seq)
            if stats is None:
                continue
            assert 0 <= stats.gap <= n - 1
            assert (stats.gap == 0) == (stats.first_b == stats.last_b)


class TestCountByGap:
    def test_n3(self):
        assert count_by_gap(3) == {0: 3, 1: 2, 2: 2}

    def test_n4(self):
        # Oracle: enumerate_all + gap_statistics over all 16 sequences.
        from collections import Counter

        oracle = Counter()
        for seq in enumerate_all(4):
            stats = gap_statistics(seq)
            if stats is not None:
                oracle[stats.gap] += 1
        assert dict(oracle) == {0: 4, 1: 3, 2: 4, 3: 4}
        assert count_by_gap(4) == {0: 4, 1: 3, 2: 4, 3: 4}

    def test_n1(self):
        assert count_by_gap(1) == {0: 1}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_totals(self, n):
        assert sum(count_by_gap(n).values()) == 2**n - 1

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_cross_check(self, n):
        # The scan is ground truth; the closed form is the checked side.
        counts = count_by_gap(n)
        for gap in range(n):
            expected = n if gap == 0 else (n - gap) * 2 ** (gap - 1)
            assert counts.get(gap, 0) == expected

    def test_invalid_length(self):
        with pytest.raises(InvalidLengthError):
            count_by_gap(0)
