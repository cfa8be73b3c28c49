"""Verb lexicon keyed by semantic-form pattern, and process-type selection.

A verb entry names the lexical field it belongs to plus the exact
emphasis/blocking pattern it lexicalizes; the pattern pair is the key
under which verbs are looked up, so ``match_verbs`` is equality
matching, nothing fuzzier.

Process-type selection maps a semantic form onto a type of the small
built-in ontology fragment (process > action > directed-action /
dispositive-material-action) by evaluating data-driven conditions over
role labels, and fills the participant roles (actor, recipient, actee)
from label priority lists.  Both the conditions and the participant
maps are plain data so a field can correct them without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sexpr
from .emphasis import (
    BlockingSet,
    EmphasisAssignment,
    SemanticForm,
    check_emphasis,
    emphatic_variables,
)
from .errors import (
    AmbiguousProcessError,
    OverlappingRulesError,
    ParseError,
    SchemeError,
    UnclassifiedFormError,
)
from .roles import CaseFrame, Role
from .scheme import FieldDefinition
from .sexpr import QuotedString


@dataclass(frozen=True)
class VerbEntry:
    """One lexicalization: a lemma for one semantic-form pattern."""

    lemma: str
    field_name: str
    emphasis: EmphasisAssignment
    blocking: BlockingSet
    event: str
    present_3sg: str
    prefix: str | None = None
    declared_um: str | None = None
    oblique_roles: frozenset[Role] = frozenset()

    def matches(self, form: SemanticForm) -> bool:
        return (
            self.field_name == form.field_name
            and self.emphasis == form.emphasis
            and self.blocking == form.blocking
        )


def match_verbs(form: SemanticForm, entries: list[VerbEntry]) -> list[VerbEntry]:
    """All entries lexicalizing exactly this form's pattern."""
    return [e for e in entries if e.matches(form)]


def parse_lexicon(
    text: str, field: FieldDefinition, case_frame: CaseFrame
) -> list[VerbEntry]:
    """Parse and validate the verb lexicon against its field."""
    entries: list[VerbEntry] = []
    seen_patterns: set[tuple[EmphasisAssignment, BlockingSet]] = set()
    variables = set(field.scheme.variables)

    for term in sexpr.read_all(text):
        if not isinstance(term, list) or not term or term[0] != "verb":
            raise ParseError("lexicon entries are (verb ...) terms")
        if len(term) < 2 or not isinstance(term[1], QuotedString) or not term[1]:
            raise ParseError("a verb entry starts with its quoted lemma")
        lemma = str(term[1])

        field_name = None
        emphasis = None
        blocked: frozenset[str] | None = None
        event = None
        present = None
        prefix = None
        declared_um = None
        for clause in term[2:]:
            if not isinstance(clause, list) or not clause or not isinstance(clause[0], str):
                raise ParseError(f"bad clause in verb {lemma!r}")
            head = clause[0]
            if head == "emphasis":
                paths = []
                for p in clause[1:]:
                    if not isinstance(p, list) or not all(isinstance(i, int) for i in p):
                        raise ParseError(
                            f"(emphasis ...) of {lemma!r} takes node paths"
                        )
                    paths.append(tuple(p))
                emphasis = EmphasisAssignment(frozenset(paths))
            elif head == "blocked":
                blocked = frozenset(
                    v[1:] for v in clause[1:] if isinstance(v, str) and v.startswith("?")
                )
                if len(blocked) != len(clause) - 1:
                    raise ParseError(f"(blocked ...) of {lemma!r} takes ?variables")
            elif head in ("field", "event", "present-3sg", "prefix", "um"):
                if len(clause) != 2:
                    raise ParseError(f"({head} ...) of {lemma!r} takes one value")
                if head == "field":
                    field_name = clause[1]
                elif head == "event":
                    event = clause[1]
                elif head == "present-3sg":
                    present = str(clause[1])
                elif head == "prefix":
                    prefix = str(clause[1])
                else:
                    declared_um = clause[1]
            else:
                raise ParseError(f"unknown verb clause {head!r} in {lemma!r}")

        if field_name != field.name:
            raise ParseError(
                f"verb {lemma!r} names field {field_name!r}, expected {field.name!r}"
            )
        if emphasis is None or blocked is None or event is None or present is None:
            raise ParseError(
                f"verb {lemma!r} needs emphasis, blocked, event and present-3sg clauses"
            )
        problems = check_emphasis(field, emphasis)
        if problems:
            raise SchemeError(
                f"verb {lemma!r} has an illegal emphasis pattern: {problems[0]}"
            )
        unknown = blocked - variables
        if unknown:
            raise SchemeError(
                f"verb {lemma!r} blocks unknown variable(s): "
                + ", ".join(sorted(unknown))
            )
        blocking = BlockingSet(blocked)
        pattern = (emphasis, blocking)
        if pattern in seen_patterns:
            raise ParseError(
                f"two lexicon entries share one emphasis/blocking pattern "
                f"(second is {lemma!r}); patterns are keys"
            )
        seen_patterns.add(pattern)

        emphatic = emphatic_variables(field.scheme, emphasis)
        oblique_roles = frozenset(
            role
            for v, role in case_frame.items()
            if v not in blocked and v not in emphatic
        )
        entries.append(
            VerbEntry(
                lemma=lemma,
                field_name=field.name,
                emphasis=emphasis,
                blocking=blocking,
                event=event,
                present_3sg=present,
                prefix=prefix,
                declared_um=declared_um,
                oblique_roles=oblique_roles,
            )
        )
    return entries


# ---------------------------------------------------------------------------
# Upper-model fragment


@dataclass(frozen=True)
class UpperModel:
    """Subsumption fragment: type name -> parent name (None for roots)."""

    parents: dict[str, str | None]

    def __contains__(self, name: str) -> bool:
        return name in self.parents

    def subsumes(self, ancestor: str, name: str) -> bool:
        current: str | None = name
        while current is not None:
            if current == ancestor:
                return True
            current = self.parents.get(current)
        return False


def parse_upper_model(text: str) -> UpperModel:
    parents: dict[str, str | None] = {}
    for term in sexpr.read_all(text):
        if (
            not isinstance(term, list)
            or len(term) not in (2, 3)
            or term[0] != "um-type"
            or not all(isinstance(x, str) for x in term[1:])
        ):
            raise ParseError("upper-model entries look like (um-type name parent?)")
        name = term[1]
        if name in parents:
            raise ParseError(f"duplicate upper-model type {name!r}")
        parents[name] = term[2] if len(term) == 3 else None
    for name, parent in parents.items():
        if parent is not None and parent not in parents:
            raise ParseError(f"upper-model type {name!r} has unknown parent {parent!r}")
        seen = {name}
        current = parent
        while current is not None:
            if current in seen:
                raise ParseError(f"upper-model subsumption cycle at {current!r}")
            seen.add(current)
            current = parents.get(current)
    return UpperModel(parents)


# ---------------------------------------------------------------------------
# Process-type rules


@dataclass(frozen=True)
class RoleTest:
    """Atomic condition over the role with the given label."""

    kind: str  # emphatic | blocked | unblocked
    label: str


@dataclass(frozen=True)
class AllOf:
    items: tuple["Condition", ...]


@dataclass(frozen=True)
class AnyOf:
    items: tuple["Condition", ...]


@dataclass(frozen=True)
class Negation:
    item: "Condition"


Condition = RoleTest | AllOf | AnyOf | Negation


def evaluate_condition(condition: Condition, form: SemanticForm) -> bool:
    if isinstance(condition, RoleTest):
        variable = form.variable_with_label(condition.label)
        if condition.kind == "emphatic":
            return variable is not None and form.is_emphatic(variable)
        if condition.kind == "unblocked":
            return variable is not None and form.is_verbalized(variable)
        # blocked: a role the frame lacks is trivially not verbalized
        return variable is None or form.is_blocked(variable)
    if isinstance(condition, AllOf):
        return all(evaluate_condition(c, form) for c in condition.items)
    if isinstance(condition, AnyOf):
        return any(evaluate_condition(c, form) for c in condition.items)
    return not evaluate_condition(condition.item, form)


@dataclass(frozen=True)
class ProcessRule:
    um_type: str
    condition: Condition


@dataclass(frozen=True)
class RoleMapRule:
    """Fill one participant role from the first verbalized label."""

    um_role: str
    label_priority: tuple[str, ...]


@dataclass(frozen=True)
class ProcessSelection:
    """Chosen process type plus its participant variables."""

    um_type: str
    participants: tuple[tuple[str, str], ...]  # (um role, variable)

    def variable_for(self, um_role: str) -> str | None:
        for role, variable in self.participants:
            if role == um_role:
                return variable
        return None


def _build_condition(term) -> Condition:
    if not isinstance(term, list) or not term or not isinstance(term[0], str):
        raise ParseError("conditions are parenthesized terms")
    head = term[0]
    if head in ("emphatic", "blocked", "unblocked"):
        if len(term) != 2 or not isinstance(term[1], str):
            raise ParseError(f"({head} <role-label>)")
        return RoleTest(head, term[1])
    if head == "and":
        return AllOf(tuple(_build_condition(t) for t in term[1:]))
    if head == "or":
        return AnyOf(tuple(_build_condition(t) for t in term[1:]))
    if head == "not":
        if len(term) != 2:
            raise ParseError("(not <condition>)")
        return Negation(_build_condition(term[1]))
    raise ParseError(f"unknown condition {head!r}")


def parse_process_rules(text: str) -> tuple[list[ProcessRule], list[RoleMapRule]]:
    rules: list[ProcessRule] = []
    role_maps: list[RoleMapRule] = []
    for term in sexpr.read_all(text):
        if not isinstance(term, list) or not term or not isinstance(term[0], str):
            raise ParseError("process entries are parenthesized terms")
        if term[0] == "process-rule":
            if len(term) != 3 or not isinstance(term[1], str):
                raise ParseError("(process-rule <type> <condition>)")
            rules.append(ProcessRule(term[1], _build_condition(term[2])))
        elif term[0] == "role-map":
            if len(term) < 3 or not all(isinstance(x, str) for x in term[1:]):
                raise ParseError("(role-map <um-role> <label>...)")
            role_maps.append(RoleMapRule(term[1], tuple(term[2:])))
        else:
            raise ParseError(f"unknown process entry {term[0]!r}")
    return rules, role_maps


def select_process_type(
    form: SemanticForm,
    rules: list[ProcessRule],
    role_maps: list[RoleMapRule],
    upper_model: UpperModel | None = None,
) -> ProcessSelection:
    """Classify the form and fill its participant roles.

    Exactly one rule must match; zero matches is a rule gap
    (unclassified form), several a data error.
    """
    matches = [r for r in rules if evaluate_condition(r.condition, form)]
    if not matches:
        raise UnclassifiedFormError(
            "no process-type rule matches the form "
            f"(emphasis {sorted(map(list, form.emphasis.emphatic))}, "
            f"blocked {sorted(form.blocking.blocked)})"
        )
    if len(matches) > 1:
        raise OverlappingRulesError(
            "process-type rules are not disjoint: "
            + " and ".join(r.um_type for r in matches)
        )
    um_type = matches[0].um_type
    if upper_model is not None and um_type not in upper_model:
        raise UnclassifiedFormError(
            f"process rule names unknown upper-model type {um_type!r}"
        )

    participants: list[tuple[str, str]] = []
    for rule in role_maps:
        for label in rule.label_priority:
            variable = form.variable_with_label(label)
            if variable is not None and form.is_verbalized(variable):
                participants.append((rule.um_role, variable))
                break
    mapped = [v for _, v in participants]
    if len(set(mapped)) != len(mapped):
        raise AmbiguousProcessError(
            "participant map is not injective over verbalized roles"
        )
    return ProcessSelection(um_type, tuple(participants))
