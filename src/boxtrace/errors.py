"""Exception hierarchy shared across the package."""


class BoxtraceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BoxtraceError):
    """Structural failure while parsing a container file."""


class NotBmff(ParseError):
    """The input does not start with a recognised top-level box."""


class TruncatedBox(ParseError):
    """A box declares a size inconsistent with the bytes actually present."""

    def __init__(self, offset: int, type_code: str, message: str):
        super().__init__(f"{message} (box '{type_code}' at offset {offset})")
        self.offset = offset
        self.type_code = type_code


class ZeroSizeNonFinal(ParseError):
    """A size-0 box appeared anywhere but the final top-level position."""

    def __init__(self, offset: int, type_code: str):
        super().__init__(
            f"size 0 is only legal for the last top-level box "
            f"(box '{type_code}' at offset {offset})"
        )
        self.offset = offset
        self.type_code = type_code


class NestingTooDeep(ParseError):
    """Containers nest deeper than the parser follows."""

    def __init__(self, offset: int, type_code: str, limit: int):
        super().__init__(
            f"containers nest more than {limit} deep "
            f"(box '{type_code}' at offset {offset})"
        )
        self.offset = offset
        self.type_code = type_code


class BoxDecodeError(BoxtraceError):
    """A known box's payload could not be field-decoded (non-fatal)."""


class PayloadTooShort(BoxDecodeError):
    """The payload ends before the schema's fixed fields do."""


class UnsupportedVersion(BoxDecodeError):
    """A full box carries a version with no known field layout."""


class DataError(BoxtraceError):
    """Invalid training data, manifest, or configuration."""


class EmptyCorpus(DataError):
    pass


class SingleClass(DataError):
    pass


class EmptyClass(DataError):
    pass


class UnknownClass(DataError):
    pass


class EmptyTrainingSet(DataError):
    pass


class ZeroMass(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class MalformedRow(DataError):
    pass


class UnknownEnum(DataError):
    pass


class EmptyScenario(DataError):
    pass


class SingleDevice(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class ModelFormatError(DataError):
    """A model file does not conform to the serialization contract."""
