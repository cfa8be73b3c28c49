"""Exception hierarchy shared by the engine and the CLI.

Every engine error derives from :class:`EmphaseError`; ``exit_code``
drives the CLI process status (1 for bad input, 2 for a gap in the
loaded rule data).  ``stage`` is filled in by the CLI so pipeline
failures name the stage that raised them.
"""


class EmphaseError(Exception):
    """Base class for all engine errors."""

    exit_code = 1

    def __init__(self, message: str):
        super().__init__(message)
        self.stage: str | None = None


class InputError(EmphaseError):
    """Malformed or inconsistent input data."""


class ParseError(InputError):
    """Syntax error in a term file, with source position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemeError(InputError):
    """Scheme or field definition violates a structural invariant."""


class UnverbalizedRoleError(InputError):
    """A sentence-plan slot was requested for a role the form blocks."""


class OrderingConflictError(InputError):
    """Requested emphasis would force the participant into focus position."""


class FocusConflictError(InputError):
    """Emphatic status and focus position requested for one participant."""


class HyperthemeError(InputError):
    """A second, different hypertheme was declared for the discourse."""


class RuleGapError(EmphaseError):
    """The loaded rule data does not cover the requested derivation."""

    exit_code = 2


class MissingRuleError(RuleGapError):
    """No role rule for a (predicate, role, polarity) triple."""


class MissingObliqueError(RuleGapError):
    """A verbalized non-emphatic role has no oblique-table entry."""


class CaseAssignmentError(RuleGapError):
    """The case priorities cannot place every emphatic unblocked role."""


class NoNominativeError(CaseAssignmentError):
    """No emphatic unblocked role is eligible for nominative."""


class UnclassifiedFormError(RuleGapError):
    """No process-type rule matches the semantic form."""


class AmbiguousProcessError(RuleGapError):
    """The process selection of a form is not unique."""


class OverlappingRulesError(AmbiguousProcessError):
    """More than one process-type rule matches (rule data not disjoint)."""


class MissingMorphologyError(RuleGapError):
    """No noun-phrase entry or inflection row for a verbalized referent."""
