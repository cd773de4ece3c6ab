import signal
import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptri import (
    Affine,
    Constant,
    EvenOddAffine,
    HalfFloor,
    InvalidLengthError,
    InvalidSequenceError,
    ModelParseError,
    ModelSpec,
    ParityFlip,
    Threshold,
    Unbounded,
    canonical_model,
    default_family,
    enumerate_all,
    format_model,
    gap_statistics,
    is_valid,
    max_type_count,
    parse_model,
    parse_sequence,
    type_histogram,
    type_of,
    valid_set,
)
from gaptri.model import _bit_count_window, _valid_weights


def string_histogram(model, n):
    # Independent oracle: validity and types computed on raw text sequences.
    name = model.gap_threshold.name
    limit = n // 2 if name == "n/2" else n - 1 if name == "inf" else int(name)
    counts = {}
    for chars in product("RB", repeat=n):
        positions = [i + 1 for i, ch in enumerate(chars) if ch == "B"]
        if not positions:
            continue
        gap = positions[-1] - positions[0]
        if gap > limit:
            continue
        if model.b_count is not None:
            lo, hi = model.b_count
            if not lo <= len(positions) <= hi:
                continue
        tm = model.type_map
        if tm.name == "parity-paper":
            k = 2 - gap if n % 2 == 0 else gap + 1
        else:
            a, b = tm.even if n % 2 == 0 else tm.odd
            k = a * gap + b
        counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def scan_census(n):
    # Oracle for the closed-form census: {(gap, b_count): count} over every
    # length-n sequence with at least one B, by scanning all 2**n codes.
    counts = {}
    for code in range(1, 1 << n):
        key = (code.bit_length() - (code & -code).bit_length(), code.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


COEFFICIENT = st.integers(-3, 3)
THRESHOLDS = st.one_of(st.builds(Constant, st.integers(0, 12)), st.just(HalfFloor()), st.just(Unbounded()))
TYPE_MAPS = st.one_of(
    st.just(ParityFlip()),
    st.builds(Affine, COEFFICIENT, COEFFICIENT),
    st.builds(
        EvenOddAffine, st.tuples(COEFFICIENT, COEFFICIENT), st.tuples(COEFFICIENT, COEFFICIENT)
    ),
)
B_COUNTS = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 12), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])),
)
MODELS = st.builds(ModelSpec, THRESHOLDS, TYPE_MAPS, B_COUNTS)


SAMPLE_MODELS = [
    canonical_model(),
    ModelSpec(Constant(0), ParityFlip()),
    ModelSpec(Constant(2), Affine(1, 1)),
    ModelSpec(Constant(3), ParityFlip()),
    ModelSpec(HalfFloor(), Affine(-1, 2)),
    ModelSpec(Unbounded(), ParityFlip()),
    ModelSpec(Unbounded(), EvenOddAffine((2, 0), (1, 1)), (1, 2)),
    ModelSpec(Constant(1), ParityFlip(), (2, 2)),
]


class TestCanonicalModel:
    def test_shape(self):
        model = canonical_model()
        assert model.gap_threshold == Constant(1)
        assert model.type_map == ParityFlip()
        assert model.b_count is None

    def test_type_assignments(self):
        model = canonical_model()
        assert type_of(model, parse_sequence("BB")) == 1
        assert type_of(model, parse_sequence("RBR")) == 1
        assert type_of(model, parse_sequence("RB")) == 2
        assert type_of(model, parse_sequence("BBR")) == 2
        assert type_of(model, parse_sequence("B")) == 1


class TestValidity:
    def test_canonical_rejects_gap_two(self):
        assert not is_valid(canonical_model(), parse_sequence("BRB"))

    def test_canonical_accepts_gap_one(self):
        assert is_valid(canonical_model(), parse_sequence("BBR"))

    def test_wider_threshold_accepts(self):
        model = ModelSpec(Constant(2), ParityFlip())
        assert is_valid(model, parse_sequence("BRB"))

    def test_no_b_never_valid(self):
        assert not is_valid(ModelSpec(Unbounded(), ParityFlip()), parse_sequence("RRR"))

    def test_b_count_constraint(self):
        model = ModelSpec(Unbounded(), ParityFlip(), (2, 2))
        assert is_valid(model, parse_sequence("BRB"))
        assert not is_valid(model, parse_sequence("BRR"))
        assert not is_valid(model, parse_sequence("BBB"))

    def test_type_of_requires_validity(self):
        with pytest.raises(InvalidSequenceError):
            type_of(canonical_model(), parse_sequence("BRB"))


class TestValidSet:
    def test_n3_exact_sequences(self):
        texts = [str(s) for s in valid_set(canonical_model(), 3)]
        assert texts == ["RRB", "RBR", "RBB", "BRR", "BBR"]

    def test_n1(self):
        assert [str(s) for s in valid_set(canonical_model(), 1)] == ["B"]

    def test_n12_size(self):
        assert len(valid_set(canonical_model(), 12)) == 23

    @pytest.mark.parametrize("n", range(1, 17))
    def test_odd_count_identity(self, n):
        assert len(valid_set(canonical_model(), n)) == 2 * n - 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unbounded_size(self, n):
        model = ModelSpec(Unbounded(), ParityFlip())
        assert len(valid_set(model, n)) == 2**n - 1

    def test_b_count_filters(self):
        single = ModelSpec(Constant(1), ParityFlip(), (1, 1))
        assert [str(s) for s in valid_set(single, 3)] == ["RRB", "RBR", "BRR"]
        double = ModelSpec(Constant(1), ParityFlip(), (2, 2))
        assert [str(s) for s in valid_set(double, 3)] == ["RBB", "BBR"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model=MODELS, n=st.integers(1, 10))
    def test_equals_filtered_enumeration(self, model, n):
        # The walk's window and is_valid's window are read the same way.
        assert valid_set(model, n) == [s for s in enumerate_all(n) if is_valid(model, s)]

    @pytest.mark.parametrize("model", SAMPLE_MODELS)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_members_are_valid_and_ordered(self, model, n):
        seqs = valid_set(model, n)
        assert all(is_valid(model, s) for s in seqs)
        codes = [s.code for s in seqs]
        assert codes == sorted(codes)

    @pytest.mark.parametrize("n", [0, 31])
    def test_length_outside_enumerable_range_is_rejected(self, n):
        # The walk is output-sized, but a gap<=inf list at n = 31 would hold
        # 2**31 - 1 sequences, so the cap bounds memory rather than time.
        with pytest.raises(InvalidLengthError):
            valid_set(canonical_model(), n)

    def test_n30_walk_is_output_sized(self):
        # A scan would visit 2**30 codes to find these 59.
        started = time.perf_counter()
        seqs = valid_set(canonical_model(), 30)
        elapsed = time.perf_counter() - started
        assert len(seqs) == 59
        assert elapsed < 1


class TestTypeHistogram:
    def test_small_rows(self):
        model = canonical_model()
        assert type_histogram(model, 2).counts == {1: 1, 2: 2}
        assert type_histogram(model, 3).counts == {1: 3, 2: 2}
        assert type_histogram(model, 4).counts == {1: 3, 2: 4}

    @pytest.mark.parametrize("model", SAMPLE_MODELS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_string_oracle(self, model, n):
        assert type_histogram(model, n).counts == string_histogram(model, n)

    @pytest.mark.parametrize("model", SAMPLE_MODELS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_total_equals_valid_set_size(self, model, n):
        assert type_histogram(model, n).total == len(valid_set(model, n))

    def test_negative_limit_counts_only_valid_sequences(self):
        # n/2 - 3 is negative at n = 2 and 3, where no sequence is valid.
        model = ModelSpec(Threshold(1, -3, "n/2-3"), Affine(1, 1))
        for n in range(1, 13):
            expected = {}
            for seq in enumerate_all(n):
                if is_valid(model, seq):
                    k = type_of(model, seq)
                    expected[k] = expected.get(k, 0) + 1
            assert type_histogram(model, n).counts == dict(sorted(expected.items())), n

    @pytest.mark.parametrize("n", range(1, 17))
    def test_canonical_types_within_two(self, n):
        realized = set(type_histogram(canonical_model(), n).counts)
        assert realized <= {1, 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
    def test_constant_at_least_n_minus_1_equals_unbounded(self, n):
        unbounded = ModelSpec(Unbounded(), ParityFlip())
        for c in (n - 1, n, n + 3):
            model = ModelSpec(Constant(c), ParityFlip())
            assert valid_set(model, n) == valid_set(unbounded, n)
            assert type_histogram(model, n) == type_histogram(unbounded, n)

    def test_limit_past_sys_maxsize_reads_every_weight(self):
        # A limit past sys.maxsize reads all n census entries.
        unbounded = ModelSpec(Unbounded(), ParityFlip())
        model = parse_model("gap<=99999999999999999999; type=parity-paper; bcount=*")
        for n in (1, 2, 9, 40):
            assert type_histogram(model, n) == type_histogram(unbounded, n)

    @pytest.mark.parametrize("model", SAMPLE_MODELS)
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_type_depends_only_on_gap(self, model, n):
        by_gap = {}
        for seq in enumerate_all(n):
            if not is_valid(model, seq):
                continue
            gap = gap_statistics(seq).gap
            k = type_of(model, seq)
            assert by_gap.setdefault(gap, k) == k


def census_windows(n):
    edges = [None, (1, 1), (1, 2), (2, 2), (3, 5), (n, n), (n + 1, n + 1), (1, n + 5)]
    # Inside 1..n and growing with n: a low end of 3 or more and a high end
    # below n, so both ends of the census recurrence move on long rows too.
    return edges + [(4, n // 2 + 4), (n // 2 + 1, n)]


def comb_weights(n, window):
    # Oracle for long rows: the closed form, one binomial at a time.
    lo, hi = window or (1, n)
    weights = [n if lo <= 1 <= hi else 0]
    for g in range(1, n):
        weights.append((n - g) * sum(comb(g - 1, b - 2) for b in range(max(lo, 2), hi + 1)))
    return tuple(weights)


class TestClosedFormCensus:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_weights_equal_scan(self, n):
        census = scan_census(n)
        for window in census_windows(n):
            lo, hi = window or (1, n)
            expected = tuple(
                sum(c for (gap, b), c in census.items() if gap == g and lo <= b <= hi)
                for g in range(n)
            )
            assert tuple(_valid_weights(Unbounded(), window, n)) == expected, window

    def test_weights_equal_binomial_sums_past_max_n(self):
        for n in range(1, 81):
            for window in census_windows(n):
                weights = tuple(_valid_weights(Unbounded(), window, n))
                assert weights == comb_weights(n, window), (n, window)

    def test_canonical_histogram_reads_only_to_its_limit(self):
        # Gap <= 1 reads two census entries, however long the row.
        started = time.perf_counter()
        counts = type_histogram(canonical_model(), 10**6).counts
        elapsed = time.perf_counter() - started
        assert counts == {1: 999999, 2: 1000000}
        assert elapsed < 1

    def test_full_census_is_linear_in_big_int_steps(self):
        model = parse_model("gap<=inf; type=affine(1,1); bcount=*")
        started = time.perf_counter()
        total = type_histogram(model, 2000).total
        elapsed = time.perf_counter() - started
        assert total == 2**2000 - 1
        assert elapsed < 0.5

    @pytest.mark.parametrize(("lo", "hi"), [(2700, 4500), (3000, 3000)])
    def test_interior_window_census_is_linear_in_big_int_steps(self, lo, hi):
        # Both window ends inside 1..n: the binomials that enter and leave
        # the window's sum are carried, not recomputed at every gap.
        model = parse_model(f"gap<=inf; type=affine(1,1); bcount={lo}..{hi}")
        started = time.perf_counter()
        total = type_histogram(model, 6000).total
        elapsed = time.perf_counter() - started
        expected, row_entry = 0, comb(6000, lo)
        for b in range(lo, hi + 1):
            expected, row_entry = expected + row_entry, row_entry * (6000 - b) // (b + 1)
        assert total == expected
        assert elapsed < 0.5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(model=MODELS, n=st.integers(1, 10))
    def test_histogram_equals_string_oracle(self, model, n):
        assert type_histogram(model, n).counts == string_histogram(model, n)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(type_map=TYPE_MAPS)
    def test_unrestricted_counts_sum_to_all_nonempty(self, type_map):
        model = ModelSpec(Unbounded(), type_map)
        for n in range(1, 101):
            assert sum(type_histogram(model, n).counts.values()) == 2**n - 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model=MODELS, n=st.integers(1, 12))
    def test_total_equals_generated_codes(self, model, n):
        assert type_histogram(model, n).total == len(valid_set(model, n))

    def test_valid_total_equals_histogram_total(self):
        # n/2-3 has a limit below -1 at n <= 3, where no census entry is read.
        thresholds = default_family().thresholds + (Threshold(1, -3, "n/2-3"),)
        for n in range(1, 41):
            for threshold in thresholds:
                for window in census_windows(n):
                    model = ModelSpec(threshold, ParityFlip(), window)
                    expected = type_histogram(model, n).total
                    weights = _valid_weights(threshold, window, n)
                    assert sum(weights) == expected, (n, threshold, window)

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match="sequence length must be >= 1"):
            type_histogram(canonical_model(), n)


def listed_within(seconds, values):
    """``list(values)``, or TimeoutError once an interval timer of ``seconds``
    runs out, so that a walk that stops stepping over whole runs fails
    instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"not listed within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return list(values)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBitCountWindow:
    # Each window below holds 41 of the 2**40 values; visiting every value
    # one by one would take hours.
    def test_steps_over_runs_with_too_many_bits(self):
        values = listed_within(2, _bit_count_window(40, 0, 1))
        assert values == [0] + [1 << i for i in range(40)]

    def test_steps_over_runs_with_too_few_bits(self):
        full = (1 << 40) - 1
        values = listed_within(2, _bit_count_window(40, 39, 40))
        assert values == sorted(full ^ 1 << i for i in range(40)) + [full]

    @pytest.mark.parametrize("bits", range(11))
    def test_equals_filter_for_every_window(self, bits):
        for lo in range(-1, bits + 2):
            for hi in range(-1, bits + 2):
                expected = [m for m in range(1 << bits) if lo <= m.bit_count() <= hi]
                assert listed_within(2, _bit_count_window(bits, lo, hi)) == expected, (lo, hi)


class TestMaxTypeCount:
    def test_canonical(self):
        assert max_type_count(canonical_model(), 7) == 2
        assert max_type_count(canonical_model(), 1) == 1

    def test_constant_three_odd_row(self):
        model = ModelSpec(Constant(3), ParityFlip())
        assert max_type_count(model, 5) == 4
        # Oracle: distinct types over the enumerated valid set.
        realized = {type_of(model, s) for s in valid_set(model, 5)}
        assert realized == {1, 2, 3, 4}


class TestThreshold:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_resolves_to_its_ceiling(self, n):
        for c in (0, 1, 2, 3, 50):
            assert Constant(c).limit(n) == c
        assert HalfFloor().limit(n) == n // 2
        assert Unbounded().limit(n) == n - 1

    def test_factories_normalise_spelling(self):
        model = parse_model("gap<=007; type=parity-paper; bcount=*")
        assert model.gap_threshold == Constant(7)
        assert format_model(model) == "gap<=7; type=parity-paper; bcount=*"
        assert [t.name for t in (Constant(0), HalfFloor(), Unbounded())] == ["0", "n/2", "inf"]


class TestSpecValidation:
    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="gap threshold must be >= 0"):
            Constant(-1)

    def test_bad_b_count(self):
        with pytest.raises(ValueError):
            ModelSpec(Constant(1), ParityFlip(), (0, 2))
        with pytest.raises(ValueError):
            ModelSpec(Constant(1), ParityFlip(), (3, 2))


class TestTextForm:
    def test_canonical_text(self):
        assert format_model(canonical_model()) == "gap<=1; type=parity-paper; bcount=*"

    def test_parse_canonical_alias(self):
        assert parse_model("canonical") == canonical_model()

    @pytest.mark.parametrize(
        "model",
        SAMPLE_MODELS
        + [
            ModelSpec(Constant(2), Affine(-1, 2), (1, 2)),
            ModelSpec(HalfFloor(), EvenOddAffine((-1, 2), (1, 1))),
        ],
    )
    def test_round_trip(self, model):
        assert parse_model(format_model(model)) == model

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(model=MODELS)
    def test_round_trip_arbitrary_models(self, model):
        assert parse_model(format_model(model)) == model

    def test_spelling_is_part_of_identity(self):
        # Same affine pairs, different spellings: distinct models.
        assert ParityFlip() != EvenOddAffine((-1, 2), (1, 1))
        assert Affine(1, 1) != EvenOddAffine((1, 1), (1, 1))

    def test_coefficients_stay_below_ten_to_the_eighteen(self):
        big = 10**18 - 1
        model = parse_model(f"gap<=1; type=even({big},-{big})/odd(-{big},{big}); bcount=*")
        assert model.type_map == EvenOddAffine((big, -big), (-big, big))
        for text in ("affine(1000000000000000000,1)", "affine(1,-1000000000000000000)"):
            with pytest.raises(ModelParseError, match="cannot parse model text"):
                parse_model(f"gap<=1; type={text}; bcount=*")

    def test_parse_normalises_spelling(self):
        model = parse_model("gap<=1; type=affine(01,-0); bcount=*")
        assert model.type_map == Affine(1, 0)
        assert format_model(model) == "gap<=1; type=affine(1,0); bcount=*"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "gap<=1",
            "gap<=x; type=parity-paper; bcount=*",
            "gap<=1; type=nonsense; bcount=*",
            "gap<=1; type=parity-paper; bcount=2..1",
            "gap<=1; type=parity-paper; bcount=0..2",
            "gap<=1;type=parity-paper;bcount=*",
            # The whole text, not a line of it, and ASCII digits only.
            "gap<=1; type=parity-paper; bcount=*\n",
            "gap<=\u0661; type=affine(\u0661,\u0662); bcount=*",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ModelParseError):
            parse_model(text)
