"""Exception types shared across the package, and the one helper that quotes
input in their messages."""

from collections.abc import Iterable

# longest stretch of input an error message quotes
QUOTE_LIMIT = 40


def quote(text: str) -> str:
    """The repr of a piece of input for an error message, cut after
    QUOTE_LIMIT characters, so a long input cannot make a long error line."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


# longest element name an error message prints whole; one message may name
# several elements, so a longer name is cut shorter than other input
NAME_LIMIT = 16


def quote_name(name: str) -> str:
    """An element name for an error message: as it is when it has at most
    NAME_LIMIT characters, else the repr of its first NAME_LIMIT followed by
    '...'."""
    if len(name) <= NAME_LIMIT:
        return name
    return f"{name[:NAME_LIMIT]!r}..."


# most candidates a NoResidualError message lists
CANDIDATE_LIMIT = 3


class ResqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ResqError, ValueError):
    """Malformed input text; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class NotResiduatedError(ResqError):
    """Tables that do not form a residuated semigroup; the message says why."""


class ResidualMismatchError(NotResiduatedError):
    """An explicit residual block disagrees with the residuals forced by the
    order and composition, so the file does not denote a residuated
    semigroup; carries the structure with the tables as given."""

    def __init__(self, message: str, algebra):
        self.algebra = algebra
        super().__init__(message)


class NoResidualError(NotResiduatedError):
    """A residual does not exist: the candidate set is empty or has no maximum.

    The attributes hold element indices; the message names the elements by
    names[i] when names are given, by their indices otherwise.  It is
    formatted when read, since the enumerations of the test corpus raise and
    discard most of these errors.
    """

    def __init__(self, left: int, right: int, side: str, candidates: Iterable[int],
                 names=None):
        self.left = left
        self.right = right
        self.side = side
        self.candidates = frozenset(candidates)
        self.names = names
        super().__init__(left, right, side, self.candidates, names)

    def __str__(self) -> str:
        names = self.names

        def label(i: int) -> str:
            return str(i) if names is None else quote_name(names[i])

        shown = sorted(self.candidates)
        members = ", ".join(map(label, shown[:CANDIDATE_LIMIT]))
        if len(shown) > CANDIDATE_LIMIT:
            members += f", ... ({len(shown)} in all)"
        return (f"no {self.side} residual for pair ({label(self.left)}, {label(self.right)}); "
                f"candidate set [{members}] has no maximum")


class ClosureSizeError(ResqError):
    """A closure computation exceeded its configured size cap."""


class QuantaleLawError(ResqError):
    """A constructed quantale violates one of its defining laws (a bug surface)."""


class EmbeddingViolation(ResqError):
    """The lower-cone embedding failed a preservation clause."""

    def __init__(self, operation: str, pair: tuple[int, ...]):
        self.operation = operation
        self.pair = pair
        super().__init__(f"embedding does not preserve {operation} at {pair}")


class ResourceLimitError(ResqError):
    """A configured node budget was exhausted before reaching a verdict.  A
    search over bases 1, 2, ... sets bases_exhausted to the number of bases it
    exhausted, and the message names them and the base it was searching."""

    def __init__(self, limit: int, message: str = "node budget exhausted",
                 bases_exhausted: int | None = None):
        self.limit = limit
        self.bases_exhausted = bases_exhausted
        if bases_exhausted is not None:
            done = ", ".join(map(str, range(1, bases_exhausted + 1))) or "none"
            message += f" while searching base {bases_exhausted + 1}; bases exhausted: {done}"
        super().__init__(f"{message} (limit {limit})")


class DimensionMismatch(ResqError):
    """Relation operands live over bases of different sizes, or an
    interpretation has fewer relations than its structure has elements."""


class MissingAtomError(ResqError):
    """A model valuation does not cover some atom of the sequent."""
