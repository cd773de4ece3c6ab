"""Exception types shared across the package."""


class GaptriError(Exception):
    """Base class for every error this package raises on purpose."""

    def __reduce__(self):
        # Rebuild from ``args`` without __init__, whose parameters differ, so
        # a pickled error keeps its type, text and fields.
        import copyreg

        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptySequenceError(GaptriError):
    def __init__(self) -> None:
        super().__init__("sequence text is empty")


class InvalidSymbolError(GaptriError):
    """Character outside the {R, B} alphabet; position is 1-based."""

    def __init__(self, position: int, found: str) -> None:
        super().__init__(f"invalid symbol {found!r} at position {position}")
        self.position = position
        self.found = found


class InvalidLengthError(GaptriError):
    def __init__(self, n: int, max_n: int) -> None:
        super().__init__(f"length {n} outside the enumerable range 1..{max_n}")
        self.n = n
        self.max_n = max_n


class InvalidSequenceError(GaptriError):
    """Sequence fails the model's validity predicate where validity is required."""


class ModelParseError(GaptriError):
    """Model text does not follow the single-line model grammar."""


class TriangleParseError(GaptriError):
    """Malformed line in a triangle file or b-file; line numbers are 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class IndexGapError(GaptriError):
    def __init__(self, expected: int, found: int) -> None:
        super().__init__(f"b-file index jumped: expected {expected}, found {found}")
        self.expected = expected
        self.found = found


class TruncatedRowError(GaptriError):
    def __init__(self, row: int) -> None:
        super().__init__(f"terms ran out inside row {row}")
        self.row = row


class MissingRowError(GaptriError):
    def __init__(self, row: int) -> None:
        super().__init__(f"triangle has no row {row}")
        self.row = row


class NotAFailureError(GaptriError):
    def __init__(self, row: int) -> None:
        super().__init__(f"row {row} matches; there is no failure to explain")
        self.row = row
