"""Exception hierarchy shared by the engine and the CLI.

Every engine error derives from :class:`EmphaseError`; ``exit_code``
drives the CLI process status (1 for bad input, 2 for a gap in the
loaded rule data).  ``stage`` names the derivation step that raised
the error; ``pipeline.staged`` sets it.
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


class BlockedOutError(InputError):
    """``subject`` blocks every argument of the emphatic propositions at ``paths``."""

    def __init__(self, paths: list, subject: str = "the blocking"):
        super().__init__(f"{subject} blocks every argument of emphatic "
                         f"proposition(s) {[list(p) for p in paths]}")
        self.paths = paths


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


class SelectionError(RuleGapError):
    """The process selection of a semantic form failed.  The form's
    ``pattern`` (emphasis, blocking), when given, is written only when
    the message is read: ``forms`` marks such a form without printing it."""

    def __init__(self, message: str, pattern: tuple | None = None):
        super().__init__(message)
        self.pattern = pattern

    def __str__(self):
        if self.pattern is None:
            return super().__str__()
        from .emphasis import pattern_text  # emphasis imports this module

        return f"{super().__str__()} {pattern_text(*self.pattern)}"


class UnclassifiedFormError(SelectionError):
    """No process-type rule matches the semantic form."""


class AmbiguousProcessError(SelectionError):
    """The process selection of a form is not unique."""


class OverlappingRulesError(AmbiguousProcessError):
    """More than one process-type rule matches (rule data not disjoint)."""


class MissingMorphologyError(RuleGapError):
    """No noun-phrase entry or inflection row for a verbalized referent."""
