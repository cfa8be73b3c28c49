"""Semantic scheme trees, lexical-field definitions, and referent bindings.

A scheme is a finite tree of propositions describing a situation type.
Interior nodes carry predicates that take only propositional arguments;
leaves carry basic predicates whose arguments are variables.  Nodes are
addressed by child-index paths from the root: ``()`` is the root,
``(1, 0)`` the first child of the root's second child.

A field definition packages a scheme with its emphasis start node,
optional emphasis branches, and coreference constraints over the
scheme's variables.  A binding maps variables to sorted referents and
is checked against those constraints.

All values are immutable after construction; every operation here is a
pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import sexpr
from .errors import ParseError, SchemeError
from .sexpr import QuotedString

NodePath = tuple[int, ...]


@dataclass(frozen=True)
class Variable:
    """Elementary argument of a basic predicate; written ``?name``."""

    name: str

    def __str__(self):
        return "?" + self.name


@dataclass(frozen=True)
class Proposition:
    """One scheme node: a predicate applied to its arguments."""

    predicate: str
    args: tuple["Proposition | Variable", ...]

    @property
    def is_basic(self) -> bool:
        return bool(self.args) and isinstance(self.args[0], Variable)

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(a for a in self.args if isinstance(a, Variable))

    def child_indices(self) -> tuple[int, ...]:
        """Positions of the propositional arguments."""
        return tuple(i for i, a in enumerate(self.args) if isinstance(a, Proposition))


@dataclass(frozen=True)
class Scheme:
    """Rooted proposition tree with unique variable occurrences."""

    root: Proposition

    def __post_init__(self):
        seen_vars: set[str] = set()
        kinds: dict[str, str] = {}

        def check(node: Proposition):
            if not node.args:
                raise SchemeError(f"predicate {node.predicate!r} has no arguments")
            has_var = any(isinstance(a, Variable) for a in node.args)
            has_prop = any(isinstance(a, Proposition) for a in node.args)
            if has_var and has_prop:
                raise SchemeError(
                    f"predicate {node.predicate!r} mixes variable and "
                    "propositional arguments"
                )
            kind = "basic" if has_var else "propositional"
            if kinds.setdefault(node.predicate, kind) != kind:
                raise SchemeError(
                    f"predicate {node.predicate!r} used both as basic and propositional"
                )
            for a in node.args:
                if isinstance(a, Variable):
                    if a.name in seen_vars:
                        raise SchemeError(
                            f"variable ?{a.name} occurs more than once; "
                            "use a coref constraint for identity"
                        )
                    seen_vars.add(a.name)
                else:
                    check(a)

        check(self.root)

    @cached_property
    def paths(self) -> tuple[NodePath, ...]:
        """All proposition paths, preorder."""
        acc: list[NodePath] = []

        def walk(node: Proposition, path: NodePath):
            acc.append(path)
            for i in node.child_indices():
                walk(node.args[i], path + (i,))

        walk(self.root, ())
        return tuple(acc)

    @cached_property
    def path_variables(self) -> dict[NodePath, frozenset[str]]:
        """Variable names of the proposition at each path; empty for a
        propositional node.  Built on first use, so parsing never pays
        for it."""
        return {
            path: frozenset(v.name for v in self.node_at(path).variables)
            for path in self.paths
        }

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Variable names in left-to-right scheme order."""
        return tuple(v for v, _site in self._sites)

    @cached_property
    def _sites(self) -> tuple[tuple[str, tuple[NodePath, int]], ...]:
        acc: list[tuple[str, tuple[NodePath, int]]] = []

        def walk(node: Proposition, path: NodePath):
            for i, a in enumerate(node.args):
                if isinstance(a, Variable):
                    acc.append((a.name, (path, i + 1)))
                else:
                    walk(a, path + (i,))

        walk(self.root, ())
        return tuple(acc)

    def variable_site(self, name: str) -> tuple[NodePath, int]:
        """Path of the basic proposition holding the variable, and its
        1-based argument position there."""
        for v, site in self._sites:
            if v == name:
                return site
        raise SchemeError(f"unknown variable ?{name}")

    def node_at(self, path: NodePath) -> Proposition:
        node = self.root
        for depth, i in enumerate(path):
            if i < 0 or i >= len(node.args) or isinstance(node.args[i], Variable):
                raise SchemeError(
                    f"path {list(path)} out of range at index {depth}"
                )
            node = node.args[i]
        return node


@dataclass(frozen=True)
class Equal:
    left: str
    right: str

    def __str__(self):
        return f"(= ?{self.left} ?{self.right})"


@dataclass(frozen=True)
class Distinct:
    left: str
    right: str

    def __str__(self):
        return f"(distinct ?{self.left} ?{self.right})"


@dataclass(frozen=True)
class OneOf:
    options: tuple[Equal, ...]

    def __str__(self):
        return "(one-of {})".format(" ".join(str(o) for o in self.options))


Constraint = Equal | Distinct | OneOf


@dataclass(frozen=True)
class FieldDefinition:
    """A lexical field: scheme, emphasis start, optional emphasis
    branches, and coreference constraints."""

    name: str
    scheme: Scheme
    emphasis_start: NodePath
    constraints: tuple[Constraint, ...] = ()
    optional_branches: tuple[NodePath, ...] = ()


@dataclass(frozen=True)
class Referent:
    """An entity filling a variable, tagged with a semantic sort."""

    name: str
    sort: str


@dataclass(frozen=True)
class Binding:
    """Variable-to-referent assignment, in file order."""

    entries: tuple[tuple[str, Referent], ...]

    def referent(self, variable: str) -> Referent | None:
        for v, r in self.entries:
            if v == variable:
                return r
        return None

    def as_dict(self) -> dict[str, Referent]:
        return dict(self.entries)


@dataclass(frozen=True)
class Violation:
    """One failed binding check; ``kind`` is machine-matchable."""

    kind: str  # missing-variable | constraint | sort-conflict
    message: str

    def __str__(self):
        return self.message


# ---------------------------------------------------------------------------
# Parsing


def _expect_symbol(term, what: str) -> str:
    if not isinstance(term, str) or isinstance(term, QuotedString):
        raise ParseError(f"expected a symbol for {what}")
    return term


def _variable_name(term, what: str) -> str:
    sym = _expect_symbol(term, what)
    if not sym.startswith("?") or len(sym) == 1:
        raise ParseError(f"expected a ?variable for {what}, got {sym!r}")
    return sym[1:]


def _build_proposition(term) -> Proposition:
    if not isinstance(term, list) or not term:
        raise ParseError("a proposition is a non-empty parenthesized term")
    predicate = _expect_symbol(term[0], "a predicate name")
    if predicate.startswith("?"):
        raise ParseError(f"predicate name may not be a variable: {predicate!r}")
    if len(term) == 1:
        raise SchemeError(f"predicate {predicate!r} has no arguments")
    args: list[Proposition | Variable] = []
    for arg in term[1:]:
        if isinstance(arg, list):
            args.append(_build_proposition(arg))
        elif isinstance(arg, str) and not isinstance(arg, QuotedString) and arg.startswith("?"):
            args.append(Variable(_variable_name(arg, "an elementary argument")))
        else:
            raise ParseError(
                f"argument of {predicate!r} must be a ?variable or a proposition"
            )
    return Proposition(predicate, tuple(args))


def _path_from(term, what: str) -> NodePath:
    if not isinstance(term, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in term
    ):
        raise ParseError(f"{what} must be a list of child indices")
    return tuple(term)


def _build_constraint(term) -> Constraint:
    if not isinstance(term, list) or not term:
        raise ParseError("a coref constraint is a parenthesized term")
    head = _expect_symbol(term[0], "a constraint kind")
    if head == "=":
        if len(term) != 3:
            raise ParseError("(= ?v ?w) takes exactly two variables")
        return Equal(_variable_name(term[1], "="), _variable_name(term[2], "="))
    if head == "distinct":
        if len(term) != 3:
            raise ParseError("(distinct ?v ?w) takes exactly two variables")
        return Distinct(
            _variable_name(term[1], "distinct"), _variable_name(term[2], "distinct")
        )
    if head == "one-of":
        options = []
        for sub in term[1:]:
            built = _build_constraint(sub)
            if not isinstance(built, Equal):
                raise ParseError("(one-of ...) takes only (= ...) options")
            options.append(built)
        if not options:
            raise ParseError("(one-of ...) needs at least one option")
        return OneOf(tuple(options))
    raise ParseError(f"unknown constraint kind {head!r}")


def parse_field(text: str) -> FieldDefinition:
    """Parse a field definition file and verify its invariants."""
    term = sexpr.read(text)
    if not isinstance(term, list) or not term or term[0] != "field":
        raise ParseError("a field file contains one (field ...) term")
    if len(term) < 2:
        raise ParseError("(field ...) needs a name")
    name = _expect_symbol(term[1], "the field name")

    scheme_term = None
    start_term = None
    coref_terms: list = []
    branch_terms: list[NodePath] | None = None
    for clause in term[2:]:
        if not isinstance(clause, list) or not clause:
            raise ParseError("field clauses are parenthesized terms")
        head = _expect_symbol(clause[0], "a clause name")
        if head == "scheme":
            if scheme_term is not None or len(clause) != 2:
                raise ParseError("exactly one (scheme <proposition>) clause")
            scheme_term = clause[1]
        elif head == "emphasis-start":
            if start_term is not None or len(clause) != 2:
                raise ParseError("exactly one (emphasis-start (<indices>)) clause")
            start_term = clause[1]
        elif head == "coref":
            coref_terms.extend(clause[1:])
        elif head == "optional-branch":
            branch_terms = [_path_from(p, "an optional branch") for p in clause[1:]]
        else:
            raise ParseError(f"unknown field clause {head!r}")
    if scheme_term is None:
        raise ParseError("field is missing its (scheme ...) clause")
    if start_term is None:
        raise ParseError("field is missing its (emphasis-start ...) clause")

    scheme = Scheme(_build_proposition(scheme_term))
    start = _path_from(start_term, "emphasis-start")
    try:
        scheme.node_at(start)
    except SchemeError:
        raise SchemeError(f"emphasis-start path {list(start)} out of range") from None

    constraints = tuple(_build_constraint(t) for t in coref_terms)
    known = set(scheme.variables)
    for c in constraints:
        names = (
            [o for pair in c.options for o in (pair.left, pair.right)]
            if isinstance(c, OneOf)
            else [c.left, c.right]
        )
        for v in names:
            if v not in known:
                raise SchemeError(f"coref constraint mentions unknown variable ?{v}")

    if branch_terms is None:
        branches = _default_branches(scheme, start)
    else:
        branches = tuple(branch_terms)
        for b in branches:
            scheme.node_at(b)
            if b == start:
                raise SchemeError("optional-branch may not repeat the emphasis start")

    return FieldDefinition(name, scheme, start, constraints, branches)


def _default_branches(scheme: Scheme, start: NodePath) -> tuple[NodePath, ...]:
    """Sibling propositions of the emphasis start node."""
    if not start:
        return ()
    parent = scheme.node_at(start[:-1])
    return tuple(
        start[:-1] + (i,) for i in parent.child_indices() if i != start[-1]
    )


def _proposition_term(node: Proposition):
    out: list = [node.predicate]
    for a in node.args:
        out.append(str(a) if isinstance(a, Variable) else _proposition_term(a))
    return out


def _constraint_term(c: Constraint):
    if isinstance(c, Equal):
        return ["=", "?" + c.left, "?" + c.right]
    if isinstance(c, Distinct):
        return ["distinct", "?" + c.left, "?" + c.right]
    return ["one-of"] + [_constraint_term(o) for o in c.options]


def print_field(fd: FieldDefinition) -> str:
    """Canonical single-line text; ``parse_field`` inverts it."""
    term: list = [
        "field",
        fd.name,
        ["scheme", _proposition_term(fd.scheme.root)],
        ["emphasis-start", list(fd.emphasis_start)],
    ]
    if fd.constraints:
        term.append(["coref"] + [_constraint_term(c) for c in fd.constraints])
    if fd.optional_branches:
        term.append(["optional-branch"] + [list(p) for p in fd.optional_branches])
    return sexpr.write(term)


def parse_binding(text: str) -> Binding:
    """Parse ``(binding (ref ?var referent sort) ...)``."""
    term = sexpr.read(text)
    if not isinstance(term, list) or not term or term[0] != "binding":
        raise ParseError("a binding file contains one (binding ...) term")
    entries: list[tuple[str, Referent]] = []
    seen: set[str] = set()
    for clause in term[1:]:
        if (
            not isinstance(clause, list)
            or len(clause) != 4
            or clause[0] != "ref"
        ):
            raise ParseError("binding entries look like (ref ?var referent sort)")
        var = _variable_name(clause[1], "a binding entry")
        if var in seen:
            raise ParseError(f"variable ?{var} bound twice")
        seen.add(var)
        entries.append(
            (
                var,
                Referent(
                    _expect_symbol(clause[2], "a referent name"),
                    _expect_symbol(clause[3], "a referent sort"),
                ),
            )
        )
    return Binding(tuple(entries))


# ---------------------------------------------------------------------------
# Binding validation


def complete_binding(fd: FieldDefinition, binding: Binding) -> Binding:
    """Propagate plain equality constraints into unbound variables."""
    bound = binding.as_dict()
    changed = True
    while changed:
        changed = False
        for c in fd.constraints:
            if not isinstance(c, Equal):
                continue
            left, right = bound.get(c.left), bound.get(c.right)
            if left is not None and right is None:
                bound[c.right] = left
                changed = True
            elif right is not None and left is None:
                bound[c.left] = right
                changed = True
    order = {v: i for i, v in enumerate(fd.scheme.variables)}
    entries = sorted(bound.items(), key=lambda item: order.get(item[0], len(order)))
    return Binding(tuple(entries))


def validate_binding(fd: FieldDefinition, binding: Binding) -> list[Violation]:
    """All failed checks; empty means the binding satisfies the field."""
    completed = complete_binding(fd, binding).as_dict()
    violations: list[Violation] = []

    for v in fd.scheme.variables:
        if v not in completed:
            violations.append(Violation("missing-variable", f"?{v} is not bound"))

    sorts: dict[str, str] = {}
    for v in fd.scheme.variables:
        ref = completed.get(v)
        if ref is None:
            continue
        if sorts.setdefault(ref.name, ref.sort) != ref.sort:
            violations.append(
                Violation(
                    "sort-conflict",
                    f"referent {ref.name} bound with sorts "
                    f"{sorts[ref.name]} and {ref.sort}",
                )
            )

    def decided(a: str, b: str) -> bool:
        return a in completed and b in completed

    for c in fd.constraints:
        if isinstance(c, Equal):
            if decided(c.left, c.right) and completed[c.left].name != completed[c.right].name:
                violations.append(Violation("constraint", f"{c} violated"))
        elif isinstance(c, Distinct):
            if decided(c.left, c.right) and completed[c.left].name == completed[c.right].name:
                violations.append(Violation("constraint", f"{c} violated"))
        else:
            options = [o for o in c.options if decided(o.left, o.right)]
            if len(options) == len(c.options) and not any(
                completed[o.left].name == completed[o.right].name for o in options
            ):
                violations.append(Violation("constraint", f"{c} violated"))
    return violations
