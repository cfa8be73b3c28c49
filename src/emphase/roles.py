"""Bottom-up derivation of the maximum case frame from a scheme.

Each variable starts with the initial role its basic predicate assigns
to that argument position.  Walking towards the root, every enclosing
propositional predicate then maps the role through the rule table,
under a polarity context that polarity-flip predicates (``not``) toggle
as they are crossed.  The result, one role per variable, is the
maximum case frame of the scheme.

Rules live in data files::

    (init have 1 (locat have))                 ; initial value
    (modify bec pos (locat have) (goal have))  ; role map under polarity
    (identity et)                              ; maps every role to itself
    (flip not)                                 ; toggles polarity, keeps role

A ``flip`` predicate keeps roles unchanged unless an explicit
``modify`` entry overrides it.  Missing rules are hard errors at
derivation time: adding a new field means deliberately extending the
table.
"""

from typing import NamedTuple

from . import sexpr
from .errors import MissingRuleError, ParseError
from .scheme import Proposition, Scheme

POS = "pos"
NEG = "neg"


class Role(NamedTuple):
    """A deep case: a label anchored to a basic predicate."""

    label: str
    anchor: str

    def __str__(self):
        return f"<{self.label}, {self.anchor}>"


# variable name -> Role, in scheme order
CaseFrame = dict[str, Role]


class RoleRuleTable(NamedTuple):
    initial: dict[tuple[str, int], Role]
    modifiers: dict[tuple[str, str, Role], Role]
    flips: frozenset[str]
    identities: frozenset[str]


def initial_role(table: RoleRuleTable, predicate: str, position: int) -> Role:
    """Initial role of a basic predicate's argument (1-based position)."""
    role = table.initial.get((predicate, position))
    if role is None:
        raise MissingRuleError(
            f"no initial role for argument {position} of basic predicate {predicate!r}"
        )
    return role


def apply_rule(table: RoleRuleTable, predicate: str, incoming: Role, polarity: str) -> Role:
    """Role produced when ``incoming`` crosses ``predicate`` under the
    given polarity context.  Pure table lookup."""
    out = table.modifiers.get((predicate, polarity, incoming))
    if out is not None:
        return out
    if predicate in table.identities or predicate in table.flips:
        return incoming
    raise MissingRuleError(
        f"no role rule for ({predicate} {polarity} {incoming})"
    )


def _derive(scheme: Scheme, table: RoleRuleTable) -> tuple[dict, list[MissingRuleError]]:
    """Role of every variable, and every rule gap in the order the walk
    meets them; a variable whose walk hits a gap maps to None."""
    gaps: list[MissingRuleError] = []

    def attempt(rule, *args) -> Role | None:
        try:
            return rule(table, *args)
        except MissingRuleError as err:
            gaps.append(err)
            return None

    def walk(node: Proposition) -> list[tuple[str, Role | None, str]]:
        if node.is_basic:
            return [
                (v.name, attempt(initial_role, node.predicate, i), POS)
                for i, v in enumerate(node.args, start=1)
            ]
        entries: list[tuple[str, Role | None, str]] = []
        for child in node.args:
            for var, role, polarity in walk(child):
                if role is not None:
                    role = attempt(apply_rule, node.predicate, role, polarity)
                if node.predicate in table.flips:
                    polarity = NEG if polarity == POS else POS
                entries.append((var, role, polarity))
        return entries

    return {var: role for var, role, _ in walk(scheme.root)}, gaps


def derive_case_frame(scheme: Scheme, table: RoleRuleTable) -> CaseFrame:
    """Maximum case frame of the scheme, one role per variable."""
    frame, gaps = _derive(scheme, table)
    if gaps:
        raise gaps[0]
    return frame


def missing_rules(scheme: Scheme, table: RoleRuleTable) -> list[str]:
    """Every rule gap the scheme would hit, for load-time totality checks."""
    return [str(err) for err in _derive(scheme, table)[1]]


# ---------------------------------------------------------------------------
# Rule-table file

def parse_role(term) -> Role:
    """A ``(label anchor)`` role, as the rule and oblique tables write it."""
    label, anchor = sexpr.clause(term, "a (label anchor) role", (1, 1))
    return Role(label, sexpr.symbol(anchor[0], "a role anchor"))


_RULES = {"init": (3, 3), "modify": (4, 4), "flip": (1, 1), "identity": (1, 1)}
_POLARITIES = {POS: POS, NEG: NEG}


def parse_rule_table(text: str) -> RoleRuleTable:
    initial: dict[tuple[str, int], Role] = {}
    modifiers: dict[tuple[str, str, Role], Role] = {}
    flips: set[str] = set()
    identities: set[str] = set()

    for term in sexpr.read_all(text):
        head, args = sexpr.clause(term, "a rule entry", _RULES)
        predicate = sexpr.symbol(args[0], f"the predicate of ({head} ...)")
        roles = [parse_role(role) for role in args[2:]]  # of init and modify
        if head == "init":
            key = (predicate, sexpr.integer(args[1], "the argument position of (init ...)"))
            if key in initial:
                raise ParseError(f"duplicate init rule: {sexpr.write(term)}")
            initial[key] = roles[0]
        elif head == "modify":
            polarity = sexpr.lookup(args[1], "the polarity of (modify ...)", _POLARITIES)
            rule = (predicate, polarity, roles[0])
            if rule in modifiers:
                raise ParseError(f"duplicate modify rule: {sexpr.write(term)}")
            modifiers[rule] = roles[1]
        elif head == "flip":
            flips.add(predicate)
        else:
            identities.add(predicate)

    return RoleRuleTable(initial, modifiers, frozenset(flips), frozenset(identities))
