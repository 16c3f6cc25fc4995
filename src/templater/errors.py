"""Exception taxonomy shared by all templater modules.

Every error raised on a user-facing path derives from TemplaterError so the
CLI can map failures to stable exit codes.
"""


class TemplaterError(Exception):
    """Base class for all templater errors."""


class ParseError(TemplaterError):
    """Base class for file-format errors; carries an optional line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MalformedHeader(ParseError):
    """Header count line unparsable, or a section length disagrees with it."""


class MalformedLine(ParseError):
    """A body line inside a section could not be parsed."""


class UnknownSection(ParseError):
    """Unrecognized section name in a data or molecule file."""


class DanglingReference(ParseError):
    """An interaction references an atom id that does not exist."""


class MissingMass(ParseError):
    """An atom uses a type id that has no Masses entry."""


class EmptyTopology(TemplaterError):
    """A topology with zero atoms was passed where a molecule is required."""


class BudgetExceeded(TemplaterError):
    """The subgraph search exceeded its node-expansion budget."""


class NoReactionDetected(TemplaterError):
    """Reactants and products are isomorphic; every bond delta is empty."""


class UnsupportedReaction(TemplaterError):
    """The reaction is not bimolecular (initiators not on two components)."""


class InconsistentPruning(TemplaterError):
    """Mapped image of the pre template set disagrees with the post set."""


class UnknownStage(TemplaterError):
    """Unknown pipeline stage requested from run_stages or an export command."""


class ValidationError(TemplaterError):
    """A domain object violates one of its declared invariants."""
