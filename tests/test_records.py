"""The contract every record type keeps: immutable, picklable, equal by value,
and, for the records with checks, checked however an instance is built; and
every error type survives a pickle."""

import pickle

import pytest

import gaptri.errors
from gaptri import (
    BinarySequence,
    CoefficientTriangle,
    Constant,
    GapStatistics,
    ModelSpec,
    ParityFlip,
    TypeHistogram,
    canonical_model,
    default_family,
    embedded_half_triangle,
    evaluate_candidate,
    gap_statistics,
    obstruction_report,
    parse_sequence,
    type_histogram,
    verify_row,
)

MODEL = canonical_model()
TRIANGLE = embedded_half_triangle()

RECORDS = {
    "Threshold": Constant(1),
    "TypeMap": ParityFlip(),
    "ModelSpec": ModelSpec(Constant(1), ParityFlip(), (1, 2)),
    "TypeHistogram": type_histogram(MODEL, 4),
    "BinarySequence": parse_sequence("RBB"),
    "GapStatistics": gap_statistics(parse_sequence("RBB")),
    "CoefficientTriangle": TRIANGLE,
    "SearchFamily": default_family(),
    "SearchResult": evaluate_candidate(MODEL, TRIANGLE, (1, 2, 3, 4)),
    "RowVerdict": verify_row(MODEL, TRIANGLE, 4),
    "ObstructionReport": obstruction_report(MODEL, TRIANGLE, 4),
}

#: (record, bad field values, error message) for the records with checks.
CHECKED = [
    (RECORDS["ModelSpec"], {"b_count": (0, 1)}, "b-count bounds need 1 <= min <= max"),
    (RECORDS["ModelSpec"], {"b_count": (2, 1)}, "b-count bounds need 1 <= min <= max"),
    (RECORDS["TypeHistogram"], {"counts": {1: 2, 2: 0}}, "histogram stores only nonzero counts"),
    (RECORDS["BinarySequence"], {"n": 0}, "sequence length must be >= 1"),
    (RECORDS["BinarySequence"], {"code": 8}, "code 8 out of range for length 3"),
    (RECORDS["BinarySequence"], {"code": -1}, "code -1 out of range for length 3"),
    (RECORDS["GapStatistics"], {"first_b": 0}, "need 1 <= first_b <= last_b"),
    (RECORDS["GapStatistics"], {"last_b": 1}, "need 1 <= first_b <= last_b"),
    (RECORDS["GapStatistics"], {"gap": 2}, "gap must equal last_b - first_b"),
    (RECORDS["CoefficientTriangle"], {"rows": ((1, 2), (3,))}, "row 2 is shorter than row 1"),
    (RECORDS["CoefficientTriangle"], {"rows": ((1,), (0, 2))}, "row 2 contains an entry < 1"),
]


def test_every_record_type_is_covered():
    assert sorted(type(r).__name__ for r in RECORDS.values()) == sorted(RECORDS)
    checked = {type(record) for record, _, _ in CHECKED}
    assert checked == {ModelSpec, TypeHistogram, BinarySequence, GapStatistics, CoefficientTriangle}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_fields_cannot_be_set(self, name):
        record = RECORDS[name]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_new_names_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            RECORDS[name].extra = 1

    def test_pickle_round_trip_is_equal(self, name):
        record = RECORDS[name]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
        assert repr(copy) == repr(record)

    def test_replace_with_same_fields_is_equal(self, name):
        record = RECORDS[name]
        assert record._replace() == record
        assert type(record)._make(record) == record

    def test_repr_names_the_record(self, name):
        assert repr(RECORDS[name]).startswith(f"{name}({RECORDS[name]._fields[0]}=")


@pytest.mark.parametrize(("record", "bad", "message"), CHECKED)
class TestRecordChecks:
    def test_constructor_refuses(self, record, bad, message):
        with pytest.raises(ValueError) as caught:
            type(record)(**{**record._asdict(), **bad})
        assert str(caught.value) == message

    def test_replace_refuses(self, record, bad, message):
        with pytest.raises(ValueError) as caught:
            record._replace(**bad)
        assert str(caught.value) == message

    def test_make_refuses(self, record, bad, message):
        with pytest.raises(ValueError) as caught:
            type(record)._make({**record._asdict(), **bad}.values())
        assert str(caught.value) == message


def test_hash_follows_value():
    for record in (RECORDS["ModelSpec"], RECORDS["BinarySequence"], RECORDS["SearchResult"]):
        assert hash(pickle.loads(pickle.dumps(record))) == hash(record)


def test_binary_sequence_len_is_its_length():
    assert len(BinarySequence(5, 3)) == 5
    assert BinarySequence(5, 3)._replace(n=7) == BinarySequence(7, 3)


ERRORS = [
    gaptri.errors.GaptriError("plain message"),
    gaptri.errors.EmptySequenceError(),
    gaptri.errors.InvalidSymbolError(3, "x"),
    gaptri.errors.InvalidLengthError(31, 30),
    gaptri.errors.InvalidSequenceError("not valid under the model"),
    gaptri.errors.ModelParseError("cannot parse model"),
    gaptri.errors.TriangleParseError(7, "not an integer"),
    gaptri.errors.IndexGapError(4, 6),
    gaptri.errors.TruncatedRowError(5),
    gaptri.errors.MissingRowError(10),
    gaptri.errors.NotAFailureError(2),
]


def test_every_error_type_is_covered():
    defined = {
        obj
        for obj in vars(gaptri.errors).values()
        if isinstance(obj, type) and issubclass(obj, gaptri.errors.GaptriError)
    }
    assert {type(error) for error in ERRORS} == defined


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_error_pickle_round_trip(error):
    # A pickled error is rebuilt by calling its class with its args.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_error_is_rebuilt_from_its_args(error):
    copy = type(error)(*error.args)
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


def test_error_repr_is_its_call():
    assert repr(gaptri.errors.MissingRowError(10)) == "MissingRowError(10)"
    assert repr(gaptri.errors.InvalidSymbolError(3, "x")) == "InvalidSymbolError(3, 'x')"


MESSAGE_ONLY = (
    gaptri.errors.GaptriError,
    gaptri.errors.InvalidSequenceError,
    gaptri.errors.ModelParseError,
)


@pytest.mark.parametrize(
    "error", [e for e in ERRORS if type(e) not in MESSAGE_ONLY], ids=lambda e: type(e).__name__
)
def test_error_with_fields_refuses_a_wrong_argument_count(error):
    with pytest.raises(TypeError):
        type(error)(*error.args, 0)
    if error.args:
        with pytest.raises(TypeError):
            type(error)(*error.args[:-1])


def test_base_error_text_is_empty():
    assert str(gaptri.errors.GaptriError()) == ""
