import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import count_calls
from test_long_rows import planted_triangle

import gaptri.search
from gaptri.model import _type_counts, _valid_weights
from gaptri.search import rank_search
from gaptri import (
    Affine,
    CoefficientTriangle,
    Constant,
    EvenOddAffine,
    HalfFloor,
    ModelSpec,
    NotAFailureError,
    ParityFlip,
    SearchFamily,
    TypeMap,
    Unbounded,
    canonical_model,
    default_family,
    embedded_half_triangle,
    evaluate_candidate,
    format_model,
    result_record,
    row_sum,
    run_search,
    type_histogram,
    valid_set,
    verify_row,
    witness,
)

SEARCH_GOLDEN = Path(__file__).parent / "golden" / "search_default_rows_1_4.tsv"


class TestDefaultFamily:
    def test_size(self):
        family = default_family()
        parts = (family.thresholds, family.type_maps, family.b_count_options)
        assert [len(p) for p in parts] == [6, 259, 4]
        assert sum(1 for _ in family.candidates()) == 6216

    def test_duplicate_type_maps(self):
        # Three members spell an affine pair that another member also spells.
        family = default_family()
        by_pairs = {}
        for type_map in family.type_maps:
            by_pairs.setdefault((type_map.even, type_map.odd), []).append(type_map.name)
        duplicates = sorted(names for names in by_pairs.values() if len(names) > 1)
        assert duplicates == [
            ["affine(-1,2)", "even(-1,2)/odd(-1,2)"],
            ["affine(1,1)", "even(1,1)/odd(1,1)"],
            ["parity-paper", "even(-1,2)/odd(1,1)"],
        ]

    @pytest.mark.parametrize(
        "spelled, paired",
        [
            (ParityFlip(), EvenOddAffine((-1, 2), (1, 1))),
            (Affine(1, 1), EvenOddAffine((1, 1), (1, 1))),
            (Affine(-1, 2), EvenOddAffine((-1, 2), (-1, 2))),
        ],
    )
    def test_duplicate_type_maps_have_equal_histograms(self, spelled, paired):
        family = default_family()
        for threshold in family.thresholds:
            for b_count in family.b_count_options:
                for n in range(1, 15):
                    assert type_histogram(ModelSpec(threshold, spelled, b_count), n) == (
                        type_histogram(ModelSpec(threshold, paired, b_count), n)
                    )

    def test_contains_canonical(self):
        assert canonical_model() in set(default_family().candidates())

    def test_contains_constant2_affine(self):
        member = ModelSpec(Constant(2), Affine(1, 1))
        assert member in set(default_family().candidates())


class TestRunSearch:
    def test_canonical_scores_three_on_first_rows(self):
        results = run_search(default_family(), embedded_half_triangle(), range(1, 4))
        canonical = next(r for r in results if r.model == canonical_model())
        assert canonical.score == 3
        assert canonical.matched_rows == frozenset({1, 2, 3})

    def test_sorted_by_score_then_text(self):
        from gaptri import format_model

        results = run_search(default_family(), embedded_half_triangle(), range(1, 5))
        keys = [(-r.score, format_model(r.model)) for r in results]
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self):
        args = (default_family(), embedded_half_triangle(), range(1, 5))
        first = [result_record(r) for r in run_search(*args)]
        second = [result_record(r) for r in run_search(*args)]
        assert first == second

    def test_gap_one_candidates_never_match_row_4(self):
        results = run_search(default_family(), embedded_half_triangle(), range(1, 5))
        for r in results:
            if r.model.gap_threshold == Constant(1):
                assert 4 not in r.matched_rows

    def test_gap_one_candidates_match_within_first_three_rows(self):
        results = run_search(default_family(), embedded_half_triangle(), range(1, 10))
        for r in results:
            if r.model.gap_threshold == Constant(1):
                assert r.matched_rows <= {1, 2, 3}

    def test_parallel_merge_equals_sequential(self):
        family = default_family()
        parallel = run_search(family, embedded_half_triangle(), range(1, 10), workers=2)
        records = "".join(result_record(r) + "\n" for r in parallel)
        assert records == SEARCH_GOLDEN.read_text(encoding="utf-8")
        triangle = planted_triangle(12)
        sequential = run_search(family, triangle, range(1, 13), workers=1)
        assert run_search(family, triangle, range(1, 13), workers=2) == sequential
        assert sequential[0].score > 0

    def test_no_rows_keeps_every_candidate(self):
        results = run_search(default_family(), embedded_half_triangle(), ())
        assert len(results) == 6216
        assert {(r.score, r.matched_rows) for r in results} == {(0, frozenset())}
        texts = [format_model(r.model) for r in results]
        assert texts == sorted(texts)

    def test_rows_must_exist(self):
        from gaptri import MissingRowError

        with pytest.raises(MissingRowError):
            run_search(default_family(), embedded_half_triangle(), range(9, 11))

    def test_row_zero_is_a_missing_row(self):
        from gaptri import MissingRowError

        with pytest.raises(MissingRowError):
            run_search(default_family(), embedded_half_triangle(), [0])

    def test_bad_window_is_refused(self):
        # The search builds no model per candidate, but still checks each
        # group's B-count window before reading its census.
        family = default_family()._replace(b_count_options=(None, (0, 2)))
        with pytest.raises(ValueError, match="b-count bounds need 1 <= min <= max"):
            rank_search(family, embedded_half_triangle(), range(1, 4))

    def test_no_type_maps_reads_no_row(self):
        family = default_family()._replace(type_maps=())
        assert run_search(family, embedded_half_triangle(), range(1, 12)) == []

    def test_each_requested_row_is_read_once(self, monkeypatch):
        # Not once per (threshold, B-count) group: 24 groups here.
        reads = []
        row = CoefficientTriangle.row

        def counted(triangle, n):
            reads.append(n)
            return row(triangle, n)

        monkeypatch.setattr(CoefficientTriangle, "row", counted)
        rank_search(default_family(), embedded_half_triangle(), [3, 1, 3, 2])
        assert reads == [3, 1, 2]

    def test_absent_row_is_refused_before_any_census(self, monkeypatch):
        from gaptri import MissingRowError

        calls = []
        monkeypatch.setattr(gaptri.search, "_valid_weights", lambda *args: calls.append(args))
        with pytest.raises(MissingRowError) as caught:
            rank_search(default_family(), embedded_half_triangle(), [1, 10])
        assert caught.value.row == 10
        assert calls == []

    def test_holds_one_census_at_a_time(self):
        # Rows 1..400 of the triangle planted by gap<=inf; type=affine(1,1);
        # bcount=*, where every row is live in some group. A group that kept
        # each live row's census and entry map at once would hold about twice
        # the triangle; one row at a time, the search stays below it.
        family, rows = default_family(), range(1, 401)
        tracemalloc.start()
        try:
            planted = tuple((n, *((n - g) << (g - 1) for g in range(1, n))) for n in rows)
            triangle = CoefficientTriangle("planted", planted)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lines, _ = rank_search(family, triangle, rows)
            peak = tracemalloc.get_traced_memory()[1] - size
        finally:
            tracemalloc.stop()
        assert peak < size
        assert lines[0].split("\t")[:2] == ["gap<=inf; type=affine(1,1); bcount=*", "400"]

    def test_missing_row_crosses_the_pool_intact(self):
        from gaptri import MissingRowError

        with pytest.raises(MissingRowError) as caught:
            run_search(default_family(), embedded_half_triangle(), range(9, 11), workers=2)
        assert str(caught.value) == "triangle has no row 10"
        assert caught.value.row == 10


# Pairs and windows of the planted and canonical models come up often, so
# that candidates share type pairs and row totals and some of them match.
PAIRS = st.one_of(
    st.sampled_from([(1, 1), (-1, 2)]), st.tuples(st.integers(-2, 2), st.integers(-2, 2))
)
FAMILIES = st.builds(
    SearchFamily,
    thresholds=st.lists(
        st.sampled_from([Constant(c) for c in range(5)] + [HalfFloor(), Unbounded()]),
        min_size=1,
        max_size=3,
    ).map(tuple),
    type_maps=st.lists(st.builds(EvenOddAffine, PAIRS, PAIRS), min_size=1, max_size=4).map(
        tuple
    ),
    # Windows reaching past the row (hi > n) or wholly beyond it (lo > n).
    b_count_options=st.lists(
        st.one_of(
            st.sampled_from([None, (1, 1), (1, 3), (5, 7), (1, 50)]),
            st.tuples(st.integers(1, 12), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)
TRIANGLES = st.sampled_from([embedded_half_triangle(), planted_triangle(9)])


class TestBehaviourClasses:
    def test_verifies_each_live_row_and_type_pair_once(self, monkeypatch):
        # A row is checked only where the model's histogram total equals the
        # row sum, and once per (threshold, window, row, type pair): each
        # check sums that row's census under that pair.
        family, triangle, rows = default_family(), embedded_half_triangle(), range(1, 10)
        calls = []

        def counting(weights, pair):
            calls.append((tuple(weights), pair))
            return _type_counts(weights, pair)

        live = {
            (m.gap_threshold, m.b_count, n, m.type_map.pair(n))
            for m in family.candidates()
            for n in rows
            if type_histogram(m, n).total == row_sum(triangle, n)
        }
        monkeypatch.setattr(gaptri.search, "_type_counts", counting)
        run_search(family, triangle, rows)
        assert len(calls) == len(live) == 512  # of 55,944 (candidate, row) pairs
        census = Counter(
            (tuple(_valid_weights(threshold, window, n)), pair)
            for threshold, window, n, pair in live
        )
        assert Counter(calls) == census

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        family=FAMILIES,
        triangle=TRIANGLES,
        rows=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    )
    def test_equals_one_candidate_at_a_time(self, family, triangle, rows):
        expected = sorted(
            (evaluate_candidate(m, triangle, rows) for m in family.candidates()),
            key=lambda r: (-r.score, format_model(r.model)),
        )
        assert run_search(family, triangle, rows) == expected


class TestRanking:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=FAMILIES,
        triangle=TRIANGLES,
        rows=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    )
    def test_lines_are_the_result_records(self, family, triangle, rows):
        lines, result = rank_search(family, triangle, rows)
        results = run_search(family, triangle, rows)
        assert lines == [result_record(r) + "\n" for r in results]
        for rank, line in enumerate(lines):
            assert line.partition("\t")[0] == format_model(result(rank).model)

    def test_equal_texts_keep_candidate_order(self):
        # A repeated threshold and type map, and a raw type map spelled like
        # Affine(1, 1) that matches the same rows here: equal records from
        # different models, which must stay in candidate order.
        raw = TypeMap((1, 0), (1, 1), "affine(1,1)")
        family = SearchFamily(
            thresholds=(Constant(1), HalfFloor(), Constant(1)),
            type_maps=(ParityFlip(), raw, Affine(1, 1), ParityFlip()),
            b_count_options=(None, (2, 2)),
        )
        triangle, rows = embedded_half_triangle(), range(1, 10)
        expected = sorted(
            (evaluate_candidate(m, triangle, rows) for m in family.candidates()),
            key=lambda r: (-r.score, format_model(r.model)),
        )
        text = "gap<=1; type=affine(1,1); bcount=*"
        same = [r for r in expected if format_model(r.model) == text]
        assert [r.model.type_map for r in same] == [raw, Affine(1, 1)] * 2
        assert len({r.score for r in same}) == 1
        lines, _ = rank_search(family, triangle, rows)
        assert run_search(family, triangle, rows) == expected
        assert lines == [result_record(r) + "\n" for r in expected]

    def test_candidates_come_in_search_order(self):
        # A repeated B-count option: the search takes the type maps inside
        # each (threshold, B-count option) group, so equal texts from a raw
        # type map and Affine(1, 1) alternate, and candidates() must agree.
        raw = TypeMap((1, 0), (1, 1), "affine(1,1)")
        family = SearchFamily((Constant(1),), (raw, Affine(1, 1)), (None, None))
        triangle, rows = embedded_half_triangle(), range(1, 10)
        expected = sorted(
            (evaluate_candidate(m, triangle, rows) for m in family.candidates()),
            key=lambda r: (-r.score, format_model(r.model)),
        )
        assert [r.model.type_map for r in expected] == [raw, Affine(1, 1)] * 2
        assert run_search(family, triangle, rows) == expected


class TestWitness:
    def test_row4_type_count_deficit(self):
        text = witness(canonical_model(), embedded_half_triangle(), 4)
        assert text == "type-count deficit: provided 2 < required 3"

    def test_row5_deficit(self):
        text = witness(canonical_model(), embedded_half_triangle(), 5)
        assert "provided 2 < required 3" in text

    def test_entry_mismatch(self):
        text = witness(ModelSpec(Unbounded(), ParityFlip()), embedded_half_triangle(), 3)
        assert text.startswith("entry mismatch at k=3")

    def test_ill_typed_row(self):
        # gap 2 at n=4 maps to k = 2 - 2 = 0 under the parity rule.
        text = witness(ModelSpec(Constant(2), ParityFlip()), embedded_half_triangle(), 4)
        assert text == "ill-typed; entry mismatch at k=0: predicted 4, target absent"

    def test_well_typed_row_has_no_prefix(self):
        # At odd n=3 the parity rule gives k = gap + 1 >= 1: gap 2 is k=3.
        text = witness(ModelSpec(Constant(2), ParityFlip()), embedded_half_triangle(), 3)
        assert text == "entry mismatch at k=3: predicted 2, target absent"

    def test_matching_row_raises(self):
        with pytest.raises(NotAFailureError):
            witness(canonical_model(), embedded_half_triangle(), 2)

    @pytest.mark.parametrize(
        "model, n",
        [(canonical_model(), 4), (ModelSpec(Unbounded(), ParityFlip()), 3)],
        ids=["obstructed-row-4", "entry-mismatch-row-3"],
    )
    def test_reads_the_census_once(self, monkeypatch, model, n):
        # The obstruction is decided on the verdict's own histogram.
        reads = count_calls(monkeypatch, type_histogram)
        assert witness(model, embedded_half_triangle(), n)
        assert len(reads) == 1

    def test_agrees_with_verify_row_across_family_sample(self):
        triangle = embedded_half_triangle()
        candidates = list(default_family().candidates())[::97]
        for model in candidates:
            for n in (1, 3, 4):
                matches = verify_row(model, triangle, n).matches
                if matches:
                    with pytest.raises(NotAFailureError):
                        witness(model, triangle, n)
                else:
                    assert witness(model, triangle, n)


class TestMonotonicity:
    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_raising_threshold_never_shrinks_valid_set(self, c):
        for n in range(1, 13):
            smaller = set(valid_set(ModelSpec(Constant(c), ParityFlip()), n))
            larger = set(valid_set(ModelSpec(Constant(c + 1), ParityFlip()), n))
            assert smaller <= larger


class TestRecords:
    def test_record_shape(self):
        result = evaluate_candidate(canonical_model(), embedded_half_triangle(), (1, 2, 3, 4))
        assert result_record(result) == "gap<=1; type=parity-paper; bcount=*\t3\t1,2,3"

    def test_record_no_matches(self):
        model = ModelSpec(Constant(0), Affine(0, 0))
        result = evaluate_candidate(model, embedded_half_triangle(), (1,))
        assert result_record(result).endswith("\t0\t-")
