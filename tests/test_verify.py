from itertools import product

import pytest

from gaptri import (
    Affine,
    Constant,
    EvenOddAffine,
    ModelSpec,
    ParityFlip,
    Unbounded,
    boundary_check,
    canonical_model,
    default_family,
    embedded_half_triangle,
    format_model,
    max_type_count,
    obstruction_record,
    obstruction_report,
    verdict_record,
    verify_row,
)
from gaptri.errors import MissingRowError


class TestVerifyRow:
    def test_row2_matches(self):
        v = verify_row(canonical_model(), embedded_half_triangle(), 2)
        assert v.matches
        assert v.predicted.counts == {1: 1, 2: 2}
        assert v.mismatch_detail == ()

    def test_row4_mismatch_detail(self):
        v = verify_row(canonical_model(), embedded_half_triangle(), 4)
        assert not v.matches
        assert v.predicted.counts == {1: 3, 2: 4}
        assert v.mismatch_detail == ((2, 4, 12), (3, None, 4))

    def test_row1_matches(self):
        assert verify_row(canonical_model(), embedded_half_triangle(), 1).matches

    def test_missing_row(self):
        with pytest.raises(MissingRowError):
            verify_row(canonical_model(), embedded_half_triangle(), 10)

    def test_deterministic(self):
        a = verify_row(canonical_model(), embedded_half_triangle(), 4)
        b = verify_row(canonical_model(), embedded_half_triangle(), 4)
        assert a == b

    def test_predicted_key_without_target_column_mismatches(self):
        model = ModelSpec(Unbounded(), ParityFlip())
        v = verify_row(model, embedded_half_triangle(), 3)
        assert not v.matches
        assert v.predicted.counts == {1: 3, 2: 2, 3: 2}
        assert (3, 2, None) in v.mismatch_detail


class TestBoundary:
    def test_pattern_rows_1_to_9(self):
        verdicts = boundary_check(canonical_model(), embedded_half_triangle(), 9)
        assert [v.matches for v in verdicts] == [True] * 3 + [False] * 6

    def test_first_three_rows(self):
        verdicts = boundary_check(canonical_model(), embedded_half_triangle(), 3)
        assert all(v.matches for v in verdicts)

    def test_unbounded_model_fails_row3(self):
        verdicts = boundary_check(
            ModelSpec(Unbounded(), ParityFlip()), embedded_half_triangle(), 3
        )
        assert [v.matches for v in verdicts] == [True, True, False]


def most_types(model, n_max):
    """Largest number of distinct types the model realizes at any length <= n_max."""
    return max(max_type_count(model, n) for n in range(1, n_max + 1))


class TestTypeCountBound:
    def test_canonical_bound(self):
        assert most_types(canonical_model(), 20) == 2
        assert most_types(canonical_model(), 1) == 1

    def test_constant_two_bound(self):
        model = ModelSpec(Constant(2), ParityFlip())
        assert most_types(model, 5) == 3

    def test_closed_form(self):
        # One B has gap 0; b >= 2 B's have every gap from b - 1 to n - 1, and
        # the threshold caps the gap at ``limit``. A slope-0 type map gives
        # all its gaps one type.
        family = default_family()
        type_maps = (
            ParityFlip(), Affine(1, 1), Affine(-1, 2), Affine(0, 1),
            EvenOddAffine((0, 3), (2, 0)),
        )
        pairs = 0
        for threshold, window, type_map in product(
            family.thresholds, family.b_count_options, type_maps
        ):
            model = ModelSpec(threshold, type_map, window)
            for n in range(1, 31):
                limit = min(threshold.limit(n), n - 1)
                lo, hi = window or (1, n)
                hi = min(hi, n)
                gaps = 0
                if limit >= 0:
                    gaps = (lo == 1) + (max(0, limit - max(lo, 2) + 2) if hi >= 2 else 0)
                expected = gaps if type_map.pair(n)[0] else min(gaps, 1)
                assert max_type_count(model, n) == expected, (format_model(model), n)
                pairs += 1
        assert pairs == 3600

    @pytest.mark.parametrize("c", range(4))
    def test_gap_bound_obstructs_every_row_from_2c_plus_2(self, c):
        # At most c + 1 types against the n // 2 + 1 entries of row n; the
        # paper's theorem is c = 1, obstructed from row 4.
        triangle = embedded_half_triangle()
        models = [m for m in default_family().candidates() if m.gap_threshold == Constant(c)]
        assert len(models) == 1036
        for model in models:
            for n in range(2 * c + 2, 10):
                assert obstruction_report(model, triangle, n).obstructed, (format_model(model), n)


class TestObstruction:
    def test_row4(self):
        r = obstruction_report(canonical_model(), embedded_half_triangle(), 4)
        assert (r.provided_types, r.required_types, r.obstructed) == (2, 3, True)

    def test_row6(self):
        r = obstruction_report(canonical_model(), embedded_half_triangle(), 6)
        assert (r.provided_types, r.required_types, r.obstructed) == (2, 4, True)

    def test_row3_not_obstructed(self):
        r = obstruction_report(canonical_model(), embedded_half_triangle(), 3)
        assert (r.provided_types, r.required_types, r.obstructed) == (2, 2, False)

    def test_obstructed_implies_mismatch_for_whole_family(self):
        triangle = embedded_half_triangle()
        for model in default_family().candidates():
            for n in range(1, 10):
                provided = max_type_count(model, n)
                if provided < len(triangle.row(n)):
                    assert not verify_row(model, triangle, n).matches


class TestRecords:
    def test_verdict_record_mismatch(self):
        v = verify_row(canonical_model(), embedded_half_triangle(), 4)
        assert verdict_record(v) == "row=4 match=false predicted=1:3,2:4 target=3,12,4"

    def test_verdict_record_match(self):
        v = verify_row(canonical_model(), embedded_half_triangle(), 1)
        assert verdict_record(v) == "row=1 match=true predicted=1:1 target=1"

    def test_obstruction_record(self):
        r = obstruction_report(canonical_model(), embedded_half_triangle(), 4)
        assert obstruction_record(r) == "row=4 provided=2 required=3 obstructed=true"
