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

Each emphatic basic proposition must keep at least one unblocked
argument (``check_blocking``); pairs that fail case assignment are
skipped and counted during enumeration.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from . import sexpr
from .errors import (
    CaseAssignmentError,
    MissingObliqueError,
    NoNominativeError,
    ParseError,
    SchemeError,
)
from .roles import CaseFrame, Role
from .scheme import FieldDefinition, NodePath, Scheme


class Case(Enum):
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

    def oblique_variables(self) -> tuple[str, ...]:
        return tuple(v for v, r in self.entries if isinstance(r, Oblique))


class _FormFields(NamedTuple):
    field_name: str
    emphasis: EmphasisAssignment
    blocking: BlockingSet
    realization: Realization
    case_frame: tuple[tuple[str, Role], ...]
    emphatic_variables: frozenset[str]


class SemanticForm(_FormFields):
    """One derivable realization pattern of a lexical field."""

    @cached_property
    def _by_label(self) -> dict[str, str]:
        """The first variable of each role label, in case-frame order."""
        return {role.label: v for v, role in reversed(self.case_frame)}

    def variable_with_label(self, label: str) -> str | None:
        return self._by_label.get(label)

    def is_emphatic(self, variable: str) -> bool:
        return variable in self.emphatic_variables

    def is_blocked(self, variable: str) -> bool:
        return variable in self.blocking

    def is_verbalized(self, variable: str) -> bool:
        return variable not in self.blocking


# ---------------------------------------------------------------------------
# Emphasis enumeration


def _chains_from(scheme: Scheme, path: NodePath) -> list[frozenset[NodePath]]:
    """All emphasis chains rooted at ``path``: the node itself plus a
    chain through exactly one propositional argument, recursively."""
    node = scheme.node_at(path)
    children = node.child_indices()
    if not children:
        return [frozenset((path,))]
    chains: list[frozenset[NodePath]] = []
    for i in children:
        for sub in _chains_from(scheme, path + (i,)):
            chains.append(frozenset((path,)) | sub)
    return chains


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


def emphatic_variables(scheme: Scheme, assignment: EmphasisAssignment) -> frozenset[str]:
    """Variables whose basic proposition is emphatic."""
    return frozenset(
        v
        for v in scheme.variables
        if scheme.variable_site(v)[0] in assignment.emphatic
    )


def check_blocking(
    scheme: Scheme, emphasis: EmphasisAssignment, blocking: BlockingSet
) -> list[NodePath]:
    """Paths of emphatic basic propositions whose arguments are all
    blocked; empty means the blocking set is admissible."""
    table, blocked = scheme.path_variables, blocking.blocked
    offending: list[NodePath] = []
    for path in emphasis.emphatic:
        names = table.get(path)
        if names is None:
            scheme.node_at(path)  # raises: the path leaves the scheme
        elif names and names <= blocked:
            offending.append(path)
    return sorted(offending)


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
    case_frame: CaseFrame, pending: list[str], priority: CasePriority
) -> dict[str, DirectCase]:
    """Direct cases for the emphatic unblocked variables ``pending`` (in
    case-frame order), or raise when one of them gets none.

    Each priority order in turn takes the first matching unassigned
    role; nominative must be taken.
    """
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


def _realization(
    case_frame: CaseFrame,
    blocking: BlockingSet,
    assigned: dict[str, DirectCase],
    oblique_table: ObliqueTable,
) -> Realization:
    """Blocked, direct or oblique for every role of the frame."""
    entries: list[tuple[str, RoleRealization]] = []
    for v, role in case_frame.items():
        if v in blocking:
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
    return Realization(tuple(entries))


def assign_cases(
    case_frame: CaseFrame,
    emphatic: frozenset[str],
    blocking: BlockingSet,
    oblique_table: ObliqueTable,
    priority: CasePriority,
) -> Realization:
    """Realize every role of the frame, or raise when the data cannot.

    Direct cases go to emphatic unblocked roles only (``direct_cases``);
    obliques go to non-emphatic unblocked roles via the preposition table.
    """
    pending = [v for v in case_frame if v in emphatic and v not in blocking]
    assigned = direct_cases(case_frame, pending, priority)
    return _realization(case_frame, blocking, assigned, oblique_table)


# ---------------------------------------------------------------------------
# Semantic-form enumeration


class FormEnumeration(NamedTuple):
    forms: list[SemanticForm]
    rejected_blocking: int
    rejected_assignment: int


def blocking_subsets(scheme: Scheme) -> list[BlockingSet]:
    """All blocking sets over the scheme's variables, in canonical
    (bitmask over scheme order) order."""
    subsets: list[frozenset[str]] = [frozenset()]
    for v in scheme.variables:
        # the sets with this variable's bit set follow those without it
        subsets += [s | {v} for s in subsets]
    return [BlockingSet(s) for s in subsets]


def enumerate_semantic_forms(
    field: FieldDefinition,
    case_frame: CaseFrame,
    oblique_table: ObliqueTable,
    priority: CasePriority,
) -> FormEnumeration:
    """Every (emphasis, blocking) pair that survives the blocking rule
    and case assignment, packaged as semantic forms in canonical order.

    Every pair is visited and checked with ``check_blocking``; the case
    assignment of a pair is decided without building its realization: a
    verbalized non-emphatic role needs an oblique entry, and the direct
    cases depend only on which emphatic roles stay unblocked, so they
    are computed once per such set.
    """
    scheme = field.scheme
    forms: list[SemanticForm] = []
    rejected_blocking = 0
    rejected_assignment = 0
    frame_items = tuple(case_frame.items())
    blockings = blocking_subsets(scheme)
    outcomes: dict[frozenset[str], dict[str, DirectCase] | None] = {}
    for emphasis in enumerate_emphasis(field):
        emphatic = emphatic_variables(scheme, emphasis)
        frame_emphatic = emphatic.intersection(case_frame)
        must_block = frozenset(
            v
            for v, role in frame_items
            if v not in emphatic and role not in oblique_table.entries
        )
        for blocking in blockings:
            blocked = blocking.blocked
            if check_blocking(scheme, emphasis, blocking):
                rejected_blocking += 1
                continue
            if not must_block <= blocked:
                rejected_assignment += 1
                continue
            unblocked = frame_emphatic - blocked
            if unblocked not in outcomes:
                pending = [v for v in case_frame if v in unblocked]
                try:
                    outcomes[unblocked] = direct_cases(case_frame, pending, priority)
                except CaseAssignmentError:
                    outcomes[unblocked] = None
            assigned = outcomes[unblocked]
            if assigned is None:
                rejected_assignment += 1
                continue
            forms.append(
                SemanticForm(
                    field_name=field.name,
                    emphasis=emphasis,
                    blocking=blocking,
                    realization=_realization(case_frame, blocking, assigned, oblique_table),
                    case_frame=frame_items,
                    emphatic_variables=emphatic,
                )
            )
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
        label, anchor = sexpr.clause(role, "a (label anchor) role", (1, 1))
        role = Role(label, sexpr.symbol(anchor[0], "a role anchor"))
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
    orders: dict[str, tuple[str, ...]] = {}
    for term in sexpr.read_all(text):
        head, args = sexpr.clause(term, "a case-priority entry", _ORDERS)
        if head in orders:
            raise ParseError(f"duplicate {head} entry")
        orders[head] = tuple(sexpr.symbol(x, f"a role label of ({head} ...)") for x in args)
    if "nominative-order" not in orders:
        raise ParseError("case-priority data must define (nominative-order ...)")
    return CasePriority(
        nominative=orders["nominative-order"],
        dative=orders.get("dative-order", ()),
        accusative=orders.get("accusative-order", ()),
    )
