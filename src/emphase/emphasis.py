"""Emphasis distribution, blocking, and grammatical case assignment.

Emphasis is distributed over a scheme's propositions starting from the
field's start node: an emphatic proposition passes emphasis down to
exactly one of its propositional arguments, so every assignment is a
chain from the start node to a basic predicate, optionally joined by
chains through the field's optional branches (whose roots need no
emphatic parent).  Blocking marks variables that are not verbalized.

Case assignment turns one (emphasis, blocking) pair into a realization:

* every emphatic unblocked role receives a direct case, chosen by the
  data-driven priority orders (nominative first, then dative, then
  accusative); exactly one role ends up nominative;
* every non-emphatic unblocked role must be realized obliquely through
  the preposition table; a missing entry is a hard error;
* blocked roles receive no realization at all.

``semantic_form`` is the one decision on an (emphasis, blocking) pair:
the pair's form, or the typed reason the grammar rejects it.  Each
emphatic basic proposition must keep at least one unblocked argument
(``check_blocking``, else ``BlockedOutError``), then case assignment
must place every role.  ``enumerate_semantic_forms`` is its bulk walk
over every pair of a field: blockings as bit masks (``Scheme.mask_of``),
one ``check_blocking`` call per pair, case assignment only on the
supersets of the must-block mask, and the same form constructor.
Only the blocked emphatic variables decide a blocking check, so
``emphasis_table`` gives an emphasis's table as the plain pair ``(mask,
verdicts)``: the mask of its emphatic variables E, and the verdict for
each of their 2^|E| subsets; a check is one lookup.
"""

import itertools
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from . import sexpr
from .errors import (
    BlockedOutError,
    CaseAssignmentError,
    MissingObliqueError,
    NoNominativeError,
    ParseError,
    SchemeError,
)
from .roles import CaseFrame, Role, parse_role
from .scheme import FieldDefinition, NodePath, Scheme


class Case(Enum):
    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code

    NOMINATIVE = "nominative"
    GENITIVE = "genitive"
    DATIVE = "dative"
    ACCUSATIVE = "accusative"


CASES = {case.value: case for case in Case}  # symbol -> case, for the data files


class EmphasisAssignment(NamedTuple):
    """Set of emphatic proposition paths."""

    emphatic: frozenset[NodePath]

    def __contains__(self, path: NodePath) -> bool:
        return path in self.emphatic


class BlockingSet(NamedTuple):
    """Variables whose roles are not verbalized."""

    blocked: frozenset[str]

    def __contains__(self, variable: str) -> bool:
        return variable in self.blocked


def pattern_text(emphasis: EmphasisAssignment, blocking: BlockingSet) -> str:
    """A pattern as a lexicon entry writes it, ``(emphasis (0) (1 0)) (blocked ?a3)``;
    paths hold integers and variables are bare symbols, so no ``sexpr.write``."""
    paths = "".join(f" ({' '.join(map(str, p))})" for p in sorted(emphasis.emphatic))
    blocked = "".join(f" ?{v}" for v in sorted(blocking.blocked))
    return f"(emphasis{paths}) (blocked{blocked})"


class DirectCase(NamedTuple):
    case: Case

    def __str__(self):
        return self.case.value


class Oblique(NamedTuple):
    preposition: str
    governed: Case

    def __str__(self):
        return f"{self.preposition}+{self.governed.value}"


class Blocked:
    """No realization: the role is not verbalized; ``BLOCKED`` is the one instance."""

    __slots__ = ()

    def __str__(self):
        return "—"

    def __repr__(self):
        return "BLOCKED"


BLOCKED = Blocked()

RoleRealization = DirectCase | Oblique | Blocked


class Realization(NamedTuple):
    """Per-variable realization, in case-frame order."""

    entries: tuple[tuple[str, RoleRealization], ...]

    def of(self, variable: str) -> RoleRealization:
        for v, r in self.entries:
            if v == variable:
                return r
        raise KeyError(variable)

    def variables_with(self, case: Case) -> tuple[str, ...]:
        return tuple(
            v
            for v, r in self.entries
            if isinstance(r, DirectCase) and r.case is case
        )


def _first_of_each_label(frame_items: tuple[tuple[str, Role], ...]) -> dict[str, str]:
    """The first variable of each role label, in case-frame order."""
    return {role.label: v for v, role in reversed(frame_items)}


class _FormFields(NamedTuple):
    field_name: str
    emphasis: EmphasisAssignment
    blocking: BlockingSet
    realization: Realization
    case_frame: tuple[tuple[str, Role], ...]
    emphatic_variables: frozenset[str]
    selection_key: tuple[EmphasisAssignment, frozenset[str]]


class SemanticForm(_FormFields):
    """One derivable realization pattern of a lexical field.  Its
    ``selection_key`` is what process selection classifies it by: its
    emphasis and its blocked variables among the first variable of each
    role label, all of its blocking that ``variable_with_label`` reads."""

    @cached_property
    def _by_label(self) -> dict[str, str]:
        return _first_of_each_label(self.case_frame)

    @cached_property
    def case_layout(self) -> tuple[tuple, ...]:
        """The realized variables in case-frame order, grouped: one tuple per
        direct case in ``Case`` order, then one of ``(variable, Oblique)``."""
        realization = self.realization
        obliques = tuple((v, r) for v, r in realization.entries if isinstance(r, Oblique))
        return (*map(realization.variables_with, Case), obliques)

    def variable_with_label(self, label: str) -> str | None:
        return self._by_label.get(label)


# ---------------------------------------------------------------------------
# Emphasis enumeration


def _chains_from(scheme: Scheme, path: NodePath) -> list[frozenset[NodePath]]:
    """All emphasis chains rooted at ``path``, in preorder: one per basic
    proposition under it, holding every path from ``path`` down to it."""
    scheme.node_at(path)  # a path outside the scheme raises SchemeError
    start = len(path)
    return [
        frozenset(basic[:depth] for depth in range(start, len(basic) + 1))
        for basic in scheme.paths
        if basic[:start] == path and scheme.node_at(basic).is_basic
    ]


def enumerate_emphasis(field: FieldDefinition) -> list[EmphasisAssignment]:
    """All legal emphasis distributions, in canonical order.

    The start node's chain is mandatory; each optional branch either
    stays out or contributes one chain of its own.
    """
    start_chains = _chains_from(field.scheme, field.emphasis_start)
    branch_options: list[list[frozenset[NodePath] | None]] = []
    for branch in field.optional_branches:
        options: list[frozenset[NodePath] | None] = [None]
        options.extend(_chains_from(field.scheme, branch))
        branch_options.append(options)

    assignments: set[frozenset[NodePath]] = set()
    for chain in start_chains:
        for combo in itertools.product(*branch_options):
            merged = chain
            for extra in combo:
                if extra is not None:
                    merged = merged | extra
            assignments.add(merged)
    # overlapping optional-branch declarations can merge into sets that
    # break the one-child rule; only invariant-satisfying sets count
    result = [
        a
        for a in (EmphasisAssignment(paths) for paths in assignments)
        if not check_emphasis(field, a)
    ]
    result.sort(key=lambda a: sorted(a.emphatic))
    return result


def check_emphasis(field: FieldDefinition, assignment: EmphasisAssignment) -> list[str]:
    """Violations of the distribution invariants; empty means legal."""
    scheme = field.scheme
    problems: list[str] = []
    emphatic = assignment.emphatic
    if field.emphasis_start not in emphatic:
        problems.append("the emphasis start node is not emphatic")
    exempt = {field.emphasis_start, *field.optional_branches}
    for path in sorted(emphatic):
        try:
            node = scheme.node_at(path)
        except SchemeError:
            problems.append(f"no proposition at path {list(path)}")
            continue
        if path not in exempt:
            if not path or path[:-1] not in emphatic:
                problems.append(
                    f"emphatic proposition {list(path)} has no emphatic parent"
                )
        children = node.child_indices()
        if children:
            emphatic_children = [i for i in children if path + (i,) in emphatic]
            if len(emphatic_children) != 1:
                problems.append(
                    f"proposition {list(path)} must pass emphasis to exactly "
                    f"one argument, has {len(emphatic_children)}"
                )
    return problems


# (mask, verdicts): the mask of an emphasis's emphatic variables, and for
# each subset of it the emphatic basic propositions it blocks out, in path order
BlockingTable = tuple[int, dict[int, list[NodePath]]]


def emphasis_table(
    scheme: Scheme, emphasis: EmphasisAssignment
) -> tuple[BlockingTable, frozenset[str]]:
    """The blocking table of an emphasis and its emphatic variables, those of
    its emphatic basic propositions; a path outside the scheme raises
    ``SchemeError``.  The table holds 2^|emphatic variables| verdicts."""
    basics = scheme.basic_variables(emphasis.emphatic)
    entries = tuple((path, scheme.mask_of(names)) for path, names in basics)
    emphatic = frozenset().union(*(names for _, names in basics))
    mask = subset = scheme.mask_of(emphatic)
    verdicts = {}
    for _ in range(1 << mask.bit_count()):
        subset = (subset - mask) & mask  # each subset of mask, 0 first
        verdicts[subset] = [path for path, names in entries if subset & names == names]
    return (mask, verdicts), emphatic


def check_blocking(table: BlockingTable, blocked: int) -> list[NodePath]:
    """Paths of the table's propositions whose variables the mask ``blocked``
    all blocks, in path order; empty means the blocking is admissible.  Only
    the blocked emphatic variables decide it, so it is one lookup; the list
    is the table's own."""
    mask, verdicts = table
    return verdicts[blocked & mask]


# ---------------------------------------------------------------------------
# Case assignment


class ObliqueTable(NamedTuple):
    """Prepositional realization per role, for verbalized roles
    without emphasis."""

    entries: dict[Role, tuple[str, Case]]


class CasePriority(NamedTuple):
    """Role-label preference orders for the direct cases."""

    nominative: tuple[str, ...]
    dative: tuple[str, ...] = ()
    accusative: tuple[str, ...] = ()


def direct_cases(
    case_frame: CaseFrame, names: frozenset[str], priority: CasePriority
) -> dict[str, DirectCase]:
    """Direct cases for the emphatic unblocked variables ``names``, taken
    in case-frame order, or raise when one of them gets none.

    Each priority order in turn takes the first matching unassigned
    role; nominative must be taken.
    """
    pending = [v for v in case_frame if v in names]
    assigned: dict[str, DirectCase] = {}

    def take(order: tuple[str, ...], case: Case):
        for label in order:
            for v in pending:
                if v not in assigned and case_frame[v].label == label:
                    assigned[v] = DirectCase(case)
                    return

    take(priority.nominative, Case.NOMINATIVE)
    if not assigned:
        raise NoNominativeError(
            "no emphatic unblocked role is eligible for nominative "
            f"(candidates: {', '.join(pending) or 'none'})"
        )
    take(priority.dative, Case.DATIVE)
    take(priority.accusative, Case.ACCUSATIVE)
    leftover = [v for v in pending if v not in assigned]
    if leftover:
        raise CaseAssignmentError(
            "no direct case available for emphatic role(s): "
            + ", ".join(f"{v} {case_frame[v]}" for v in leftover)
        )
    return assigned


def _form(
    field_name: str,
    frame_items: tuple[tuple[str, Role], ...],
    selection_variables: frozenset[str],
    oblique_table: ObliqueTable,
    emphasis: EmphasisAssignment,
    emphatic: frozenset[str],
    blocked: frozenset[str],
    assigned: dict[str, DirectCase],
) -> SemanticForm:
    """The form of an admissible pair whose direct cases are ``assigned``:
    each role of the frame blocked, direct or oblique."""
    entries: list[tuple[str, RoleRealization]] = []
    for v, role in frame_items:
        if v in blocked:
            entries.append((v, BLOCKED))
        elif v in assigned:
            entries.append((v, assigned[v]))
        else:
            oblique = oblique_table.entries.get(role)
            if oblique is None:
                raise MissingObliqueError(
                    f"no oblique realization for verbalized non-emphatic role "
                    f"{role} (variable {v})"
                )
            entries.append((v, Oblique(*oblique)))
    return SemanticForm(field_name, emphasis, BlockingSet(blocked), Realization(tuple(entries)),
                        frame_items, emphatic, (emphasis, blocked & selection_variables))


def semantic_form(
    field: FieldDefinition,
    case_frame: CaseFrame,
    oblique_table: ObliqueTable,
    priority: CasePriority,
    emphasis: EmphasisAssignment,
    blocked: frozenset[str],
) -> SemanticForm:
    """The form of the pair (``emphasis``, ``blocked`` variables), or the first
    reason it is rejected: ``BlockedOutError`` (an emphatic basic proposition
    keeps no argument), then ``NoNominativeError`` or ``CaseAssignmentError``
    (``direct_cases``), then ``MissingObliqueError``."""
    scheme = field.scheme
    table, emphatic = emphasis_table(scheme, emphasis)
    offending = check_blocking(table, scheme.mask_of(blocked))
    if offending:
        raise BlockedOutError(offending)
    assigned = direct_cases(case_frame, emphatic - blocked, priority)
    frame_items = tuple(case_frame.items())
    return _form(field.name, frame_items, frozenset(_first_of_each_label(frame_items).values()),
                 oblique_table, emphasis, emphatic, blocked, assigned)


# ---------------------------------------------------------------------------
# Semantic-form enumeration


class FormEnumeration(NamedTuple):
    forms: list[SemanticForm]
    rejected_blocking: int
    rejected_assignment: int


def enumerate_semantic_forms(
    field: FieldDefinition,
    case_frame: CaseFrame,
    oblique_table: ObliqueTable,
    priority: CasePriority,
) -> FormEnumeration:
    """The forms ``semantic_form`` gives over every (emphasis, blocking)
    pair of the field, in canonical order: by emphasis, then by blocking
    mask (``Scheme.mask_of``); each rejected pair is counted by its reason.

    ``check_blocking``, called once per pair, is all a pair costs: one
    lookup in the emphasis's verdict table, whose 2^|emphatic variables|
    entries are built once per emphasis.  Case assignment runs only on the
    supersets of the must-block mask (frame variables that, verbalized,
    would be non-emphatic with no oblique entry), with direct cases
    memoized per unblocked frame-emphatic mask.
    """
    scheme = field.scheme
    forms: list[SemanticForm] = []
    rejected_blocking = 0
    frame_items = tuple(case_frame.items())
    selection_variables = frozenset(_first_of_each_label(frame_items).values())
    frame_mask = scheme.mask_of(case_frame)
    no_oblique = scheme.mask_of({v for v, r in frame_items if r not in oblique_table.entries})
    masks = range(1 << len(scheme.variables))
    outcomes: dict[int, dict[str, DirectCase] | None] = {}
    emphases = enumerate_emphasis(field)
    for emphasis in emphases:
        table, emphatic = emphasis_table(scheme, emphasis)
        rejected = bytearray(len(masks))
        for mask in masks:  # a call from Python code costs less than one from map
            if check_blocking(table, mask):
                rejected[mask] = 1
        rejected_blocking += rejected.count(1)
        emphatic_mask, _ = table
        must_block = no_oblique & ~emphatic_mask
        free = subset = masks[-1] & ~must_block
        for _ in range(1 << free.bit_count()):
            subset = (subset - free) & free  # the subsets of free, 0 first, in increasing order
            blocked = must_block | subset
            if rejected[blocked]:
                continue
            unblocked = frame_mask & emphatic_mask & ~blocked
            if unblocked not in outcomes:
                try:
                    outcomes[unblocked] = direct_cases(
                        case_frame, scheme.names_of(unblocked), priority
                    )
                except CaseAssignmentError:
                    outcomes[unblocked] = None
            assigned = outcomes[unblocked]
            if assigned is None:
                continue
            forms.append(_form(field.name, frame_items, selection_variables, oblique_table,
                               emphasis, emphatic, scheme.names_of(blocked), assigned))
    rejected_assignment = len(emphases) * len(masks) - rejected_blocking - len(forms)
    return FormEnumeration(forms, rejected_blocking, rejected_assignment)


# ---------------------------------------------------------------------------
# Data files


def parse_oblique_table(text: str) -> ObliqueTable:
    """Parse ``(oblique (label anchor) "prep" case)`` entries."""
    entries: dict[Role, tuple[str, Case]] = {}
    for term in sexpr.read_all(text):
        _, (role, preposition, case) = sexpr.clause(
            term, "an oblique entry", {"oblique": (3, 3)}
        )
        role = parse_role(role)
        if role in entries:
            raise ParseError(f"duplicate oblique entry for {role}")
        entries[role] = (
            sexpr.string(preposition, "the preposition"),
            sexpr.lookup(case, "the governed case", CASES),
        )
    return ObliqueTable(entries)


_ORDERS = {
    "nominative-order": (0, None),
    "dative-order": (0, None),
    "accusative-order": (0, None),
}


def parse_case_priority(text: str) -> CasePriority:
    """Parse the nominative/dative/accusative label orders."""
    orders = {
        head: tuple(sexpr.symbol(x, f"a role label of ({head} ...)") for x in args)
        for head, args in sexpr.clauses(
            sexpr.read_all(text), "a case-priority entry", _ORDERS
        ).items()
    }
    if "nominative-order" not in orders:
        raise ParseError("case-priority data must define (nominative-order ...)")
    return CasePriority(
        nominative=orders["nominative-order"],
        dative=orders.get("dative-order", ()),
        accusative=orders.get("accusative-order", ()),
    )
