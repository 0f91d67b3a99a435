"""Exception hierarchy shared by the library and the command line driver.

Every domain failure derives from UsoError and carries a short machine
readable ``category`` that the CLI prints as ``error: <category>: ...``.
"""


class UsoError(Exception):
    category = "domain"


class DimensionError(UsoError):
    """Index or dimension outside the range an operation supports."""

    category = "dimension"


class NotAnUsoError(UsoError):
    category = "not-an-uso"


class NotATilingError(UsoError):
    category = "not-a-tiling"


class InvalidRuleError(UsoError):
    category = "invalid-rule"


class LabellingError(UsoError):
    category = "labelling"


class PhaseSelectionError(UsoError):
    category = "phase-selection"


class HypervertexError(UsoError):
    category = "not-a-hypervertex"


class EnumerationLimitError(UsoError):
    """Requested dimension exceeds a documented hard cap."""

    category = "limit"


class InternalError(UsoError):
    """A cross-check inside usokit failed: a bug, not bad input.

    The CLI maps this to exit code 3.
    """

    category = "internal"


class FormatError(UsoError):
    """Malformed input text; the CLI maps this to the parse exit code."""

    category = "parse"
