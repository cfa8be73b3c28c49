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
maps are plain data so a field can correct them without code changes;
a condition is held as the term its file writes, and the upper model as
its parent map.
"""

from typing import NamedTuple

from . import sexpr
from .emphasis import (
    BlockingSet,
    EmphasisAssignment,
    SemanticForm,
    check_emphasis,
)
from .errors import (
    AmbiguousProcessError,
    OverlappingRulesError,
    ParseError,
    SchemeError,
    UnclassifiedFormError,
)
from .scheme import FieldDefinition


class VerbEntry(NamedTuple):
    """One lexicalization: a lemma for one semantic-form pattern."""

    lemma: str
    field_name: str
    emphasis: EmphasisAssignment
    blocking: BlockingSet
    event: str
    present_3sg: str
    prefix: str | None = None
    declared_um: str | None = None

    def matches(self, form: SemanticForm) -> bool:
        return (
            self.field_name == form.field_name
            and self.emphasis == form.emphasis
            and self.blocking == form.blocking
        )


def match_verbs(form: SemanticForm, entries: list[VerbEntry]) -> list[VerbEntry]:
    """All entries lexicalizing exactly this form's pattern."""
    return [e for e in entries if e.matches(form)]


_VERB_CLAUSES = {
    "field": (1, 1),
    "emphasis": (0, None),
    "blocked": (0, None),
    "event": (1, 1),
    "present-3sg": (1, 1),
    "prefix": (1, 1),
    "um": (1, 1),
}


def parse_lexicon(text: str, field: FieldDefinition) -> list[VerbEntry]:
    """Parse and validate the verb lexicon against its field."""
    entries: list[VerbEntry] = []
    seen_patterns: set[tuple[EmphasisAssignment, BlockingSet]] = set()
    variables = set(field.scheme.variables)

    for term in sexpr.read_all(text):
        _, args = sexpr.clause(term, "a lexicon entry", {"verb": (1, None)})
        lemma = sexpr.string(args[0], "a verb lemma")
        if not lemma:
            raise ParseError("a verb entry starts with its quoted lemma")

        values: dict[str, object] = {}
        found = sexpr.clauses(args[1:], f"a clause of verb {lemma!r}", _VERB_CLAUSES)
        for head, rest in found.items():
            slot = f"the ({head} ...) of verb {lemma!r}"
            if head == "emphasis":
                paths = frozenset(sexpr.path(p, slot) for p in rest)
                values[head] = EmphasisAssignment(paths)
            elif head == "blocked":
                values[head] = frozenset(sexpr.variable(v, slot) for v in rest)
                if len(values[head]) != len(rest):
                    raise ParseError(f"{slot} names a variable twice")
            elif head in ("present-3sg", "prefix"):
                values[head] = sexpr.string(rest[0], slot)
            else:
                values[head] = sexpr.symbol(rest[0], slot)

        if not {"field", "emphasis", "blocked", "event", "present-3sg"} <= values.keys():
            raise ParseError(
                f"verb {lemma!r} needs field, emphasis, blocked, event and present-3sg clauses"
            )
        if values["field"] != field.name:
            raise ParseError(
                f"verb {lemma!r} names field {values['field']!r}, expected {field.name!r}"
            )
        emphasis, blocked = values["emphasis"], values["blocked"]
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
        entries.append(
            VerbEntry(
                lemma=lemma,
                field_name=field.name,
                emphasis=emphasis,
                blocking=blocking,
                event=values["event"],
                present_3sg=values["present-3sg"],
                prefix=values.get("prefix"),
                declared_um=values.get("um"),
            )
        )
    return entries


# ---------------------------------------------------------------------------
# Upper-model fragment


# Subsumption fragment: type name -> parent name (None for roots)
UpperModel = dict[str, str | None]


def parse_upper_model(text: str) -> UpperModel:
    parents: dict[str, str | None] = {}
    for term in sexpr.read_all(text):
        _, args = sexpr.clause(term, "an upper-model entry", {"um-type": (1, 2)})
        name, *parent = (sexpr.symbol(x, "an upper-model type") for x in args)
        if name in parents:
            raise ParseError(f"duplicate upper-model type {name!r}")
        parents[name] = parent[0] if parent else None
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
    return parents


# ---------------------------------------------------------------------------
# Process-type rules


# The term a rules file writes, its symbols checked: ("and", c, ...),
# ("or", c, ...), ("not", c), or (kind, label) for the role with that label,
# kind being emphatic, blocked or unblocked.
Condition = tuple


def evaluate_condition(condition: Condition, form: SemanticForm) -> bool:
    head = condition[0]
    if head == "and":
        return all(evaluate_condition(c, form) for c in condition[1:])
    if head == "or":
        return any(evaluate_condition(c, form) for c in condition[1:])
    if head == "not":
        return not evaluate_condition(condition[1], form)
    variable = form.variable_with_label(condition[1])
    if head == "emphatic":
        return variable is not None and variable in form.emphatic_variables
    if head == "unblocked":
        return variable is not None and variable not in form.blocking
    # blocked: a role the frame lacks is trivially not verbalized
    return variable is None or variable in form.blocking


class ProcessRule(NamedTuple):
    um_type: str
    condition: Condition


class RoleMapRule(NamedTuple):
    """Fill one participant role from the first verbalized label."""

    um_role: str
    label_priority: tuple[str, ...]


class ProcessSelection(NamedTuple):
    """Chosen process type plus its participant variables."""

    um_type: str
    participants: tuple[tuple[str, str], ...]  # (um role, variable)

    def variable_for(self, um_role: str) -> str | None:
        for role, variable in self.participants:
            if role == um_role:
                return variable
        return None


_CONDITIONS = {
    "emphatic": (1, 1),
    "blocked": (1, 1),
    "unblocked": (1, 1),
    "and": (0, None),
    "or": (0, None),
    "not": (1, 1),
}


def _build_condition(term) -> Condition:
    head, args = sexpr.clause(term, "a condition", _CONDITIONS)
    if head in ("and", "or", "not"):
        return (head, *map(_build_condition, args))
    return (head, sexpr.symbol(args[0], f"the role label of ({head} ...)"))


def parse_process_rules(text: str) -> tuple[list[ProcessRule], list[RoleMapRule]]:
    rules: list[ProcessRule] = []
    role_maps: list[RoleMapRule] = []
    for term in sexpr.read_all(text):
        head, args = sexpr.clause(
            term, "a process entry", {"process-rule": (2, 2), "role-map": (2, None)}
        )
        if head == "process-rule":
            um_type = sexpr.symbol(args[0], "a process type")
            rules.append(ProcessRule(um_type, _build_condition(args[1])))
        else:
            um_role, *labels = (sexpr.symbol(x, "a (role-map ...) symbol") for x in args)
            role_maps.append(RoleMapRule(um_role, tuple(labels)))
    return rules, role_maps


def select_process_type(
    form: SemanticForm,
    rules: list[ProcessRule],
    role_maps: list[RoleMapRule],
    upper_model: UpperModel,
) -> ProcessSelection:
    """Classify the form and fill its participant roles.

    Exactly one rule must match; zero matches is a rule gap
    (unclassified form), several a data error.
    """
    matches = [r for r in rules if evaluate_condition(r.condition, form)]
    if not matches:
        raise UnclassifiedFormError(
            "no process-type rule matches the form", (form.emphasis, form.blocking)
        )
    if len(matches) > 1:
        raise OverlappingRulesError(
            "process-type rules are not disjoint: "
            + " and ".join(r.um_type for r in matches),
            (form.emphasis, form.blocking),
        )
    um_type = matches[0].um_type
    if um_type not in upper_model:
        raise UnclassifiedFormError(
            f"process rule names unknown upper-model type {um_type!r}"
        )

    filled = participants(form, role_maps)
    mapped = [v for _, v in filled]
    if len(set(mapped)) != len(mapped):
        raise AmbiguousProcessError(
            "participant map is not injective over verbalized roles"
        )
    return ProcessSelection(um_type, filled)


def participants(
    form: SemanticForm, role_maps: list[RoleMapRule]
) -> tuple[tuple[str, str], ...]:
    """(um role, variable) for each role map with a verbalized label: the
    first such label in the map's priority order."""
    filled: list[tuple[str, str]] = []
    for rule in role_maps:
        for label in rule.label_priority:
            variable = form.variable_with_label(label)
            if variable is not None and variable not in form.blocking:
                filled.append((rule.um_role, variable))
                break
    return tuple(filled)
