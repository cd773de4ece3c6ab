"""Exception types shared across the package."""


class GaptriError(Exception):
    """Base class for every error this package raises on purpose. ``args``
    are the constructor's arguments. A class naming ``fields`` takes exactly
    those, keeps each as an attribute, and reads as its ``text`` filled from
    them; the others read as ``Exception`` does."""

    fields: tuple[str, ...] | None = None

    def __init__(self, *args: object) -> None:
        if self.fields is not None:
            if len(args) != len(self.fields):
                raise TypeError(f"{type(self).__name__} takes ({', '.join(self.fields)})")
            vars(self).update(zip(self.fields, args))
        super().__init__(*args)

    def __str__(self) -> str:
        return super().__str__() if self.fields is None else self.text.format(*self.args)


class InvalidLengthError(GaptriError):
    fields = ("n", "max_n")
    text = "length {0} outside the enumerable range 1..{1}"


class ModelParseError(GaptriError):
    """Model text does not follow the single-line model grammar."""


class TriangleParseError(GaptriError):
    """Malformed line in a triangle file or b-file; line numbers are 1-based."""

    fields = ("line", "message")
    text = "line {0}: {1}"


class IndexGapError(GaptriError):
    fields = ("expected", "found")
    text = "b-file index jumped: expected {0}, found {1}"


class TruncatedRowError(GaptriError):
    fields = ("row",)
    text = "terms ran out inside row {0}"


class MissingRowError(GaptriError):
    fields = ("row",)
    text = "triangle has no row {0}"


class NotAFailureError(GaptriError):
    fields = ("row",)
    text = "row {0} matches; there is no failure to explain"
