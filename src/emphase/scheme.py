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

from functools import cached_property
from typing import Container, NamedTuple

from . import sexpr
from .errors import ParseError, SchemeError

NodePath = tuple[int, ...]


def distinct_by_type(cls):
    """Class decorator for a NamedTuple record that shares its shape with
    another record type: an instance equals only instances of its own
    type, so that ``Equal(a, b) != Distinct(a, b)``."""

    def eq(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    cls.__eq__ = eq
    cls.__ne__ = lambda self, other: not eq(self, other)
    return cls


class Variable(NamedTuple):
    """Elementary argument of a basic predicate; written ``?name``."""

    name: str

    def __str__(self):
        return "?" + self.name


class Proposition(NamedTuple):
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


class _SchemeFields(NamedTuple):
    root: Proposition


class Scheme(_SchemeFields):
    """Rooted proposition tree with unique variable occurrences.  Its
    query tables, built by the constructor's one walk, are kept on the
    instance."""

    def __new__(cls, root: Proposition):
        self = super().__new__(cls, root)
        # the one walk of the tree: validate it, record the tables queries read
        nodes: dict[NodePath, Proposition] = {}
        sites: dict[str, tuple[NodePath, int]] = {}
        kinds: dict[str, str] = {}

        def check(node: Proposition, path: NodePath):
            nodes[path] = node
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
            for i, a in enumerate(node.args):
                if isinstance(a, Variable):
                    if a.name in sites:
                        raise SchemeError(
                            f"variable ?{a.name} occurs more than once; "
                            "use a coref constraint for identity"
                        )
                    sites[a.name] = (path, i + 1)
                else:
                    check(a, path + (i,))

        check(root, ())
        self._nodes = nodes
        self._sites = sites
        return self

    @cached_property
    def paths(self) -> tuple[NodePath, ...]:
        """All proposition paths, preorder."""
        return tuple(self._nodes)

    def basic_variables(
        self, paths: frozenset[NodePath]
    ) -> tuple[tuple[NodePath, frozenset[str]], ...]:
        """The basic propositions among ``paths``, in path order, each with
        its variable names; a path outside the scheme raises."""
        nodes = [(path, self.node_at(path)) for path in sorted(paths)]
        return tuple(
            (path, frozenset(v.name for v in node.variables))
            for path, node in nodes
            if node.is_basic
        )

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Variable names in left-to-right scheme order."""
        return tuple(self._sites)

    def mask_of(self, names: Container[str]) -> int:
        """Bit mask of the scheme variables in ``names``: bit j is ``variables[j]``."""
        return sum(1 << j for j, v in enumerate(self.variables) if v in names)

    def names_of(self, mask: int) -> frozenset[str]:
        """The variables whose bits are set in ``mask``."""
        return frozenset(v for j, v in enumerate(self.variables) if mask >> j & 1)

    def variable_site(self, name: str) -> tuple[NodePath, int]:
        """Path of the basic proposition holding the variable, and its
        1-based argument position there."""
        site = self._sites.get(name)
        if site is None:
            raise SchemeError(f"unknown variable ?{name}")
        return site

    def node_at(self, path: NodePath) -> Proposition:
        node = self._nodes.get(path)
        if node is None:
            # the first index whose prefix names no proposition
            depth = next(d for d in range(len(path)) if path[: d + 1] not in self._nodes)
            raise SchemeError(f"path {list(path)} out of range at index {depth}")
        return node


@distinct_by_type
class Equal(NamedTuple):
    left: str
    right: str


@distinct_by_type
class Distinct(NamedTuple):
    left: str
    right: str


class OneOf(NamedTuple):
    options: tuple[Equal, ...]


Constraint = Equal | Distinct | OneOf


class FieldDefinition(NamedTuple):
    """A lexical field: scheme, emphasis start, optional emphasis
    branches, and coreference constraints."""

    name: str
    scheme: Scheme
    emphasis_start: NodePath
    constraints: tuple[Constraint, ...] = ()
    optional_branches: tuple[NodePath, ...] = ()


class Referent(NamedTuple):
    """An entity filling a variable, tagged with a semantic sort."""

    name: str
    sort: str


class _BindingFields(NamedTuple):
    entries: tuple[tuple[str, Referent], ...]


class Binding(_BindingFields):
    """Variable-to-referent assignment, in file order.  A variable's referent
    is its first entry's, looked up in an index built on first use."""

    @cached_property
    def _index(self) -> dict[str, Referent]:
        return {v: r for v, r in reversed(self.entries)}

    def referent(self, variable: str) -> Referent | None:
        return self._index.get(variable)


class Violation(NamedTuple):
    """One failed binding check; ``kind`` is machine-matchable."""

    kind: str  # unknown-variable | missing-variable | constraint | sort-conflict
    message: str

    def __str__(self):
        return self.message


# ---------------------------------------------------------------------------
# Parsing


def _build_proposition(term) -> Proposition:
    predicate, args = sexpr.clause(term, "a proposition", (0, None))
    if predicate.startswith("?"):
        raise ParseError(f"predicate name may not be a variable: {predicate}")
    return Proposition(
        predicate,
        tuple(
            _build_proposition(arg)
            if isinstance(arg, list)
            else Variable(sexpr.variable(arg, f"an argument of {predicate}"))
            for arg in args
        ),
    )


_FIELD_CLAUSES = {
    "scheme": (1, 1),
    "emphasis-start": (1, 1),
    "coref": (0, None),
    "optional-branch": (0, None),
}

_CONSTRAINTS = {"=": (2, 2), "distinct": (2, 2), "one-of": (1, None)}


def _build_constraint(term, slot: str, arities: dict) -> Constraint:
    head, args = sexpr.clause(term, slot, arities)
    if head == "one-of":
        return OneOf(
            tuple(_build_constraint(t, "a one-of option", {"=": (2, 2)}) for t in args)
        )
    left, right = (sexpr.variable(a, f"a variable of ({head} ...)") for a in args)
    return Equal(left, right) if head == "=" else Distinct(left, right)


def parse_field(text: str) -> FieldDefinition:
    """Parse a field definition file and verify its invariants."""
    _, args = sexpr.clause(sexpr.read(text), "a field file", {"field": (1, None)})
    name = sexpr.symbol(args[0], "the field name")
    found = sexpr.clauses(args[1:], "a field clause", _FIELD_CLAUSES)
    branches = found.get("optional-branch")
    if branches is not None:
        branches = tuple(sexpr.path(p, "an optional branch") for p in branches)
    for head in ("scheme", "emphasis-start"):
        if head not in found:
            raise ParseError(f"field is missing its ({head} ...) clause")

    scheme = Scheme(_build_proposition(found["scheme"][0]))
    start = sexpr.path(found["emphasis-start"][0], "emphasis-start")
    try:
        scheme.node_at(start)
    except SchemeError:
        raise SchemeError(f"emphasis-start path {list(start)} out of range") from None

    coref = found.get("coref", ())
    constraints = tuple(_build_constraint(t, "a coref constraint", _CONSTRAINTS) for t in coref)
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

    if branches is None:
        branches = _default_branches(scheme, start)
    else:
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
    _, args = sexpr.clause(sexpr.read(text), "a binding file", {"binding": (0, None)})
    entries: list[tuple[str, Referent]] = []
    seen: set[str] = set()
    for term in args:
        _, (var, name, sort) = sexpr.clause(term, "a binding entry", {"ref": (3, 3)})
        var = sexpr.variable(var, "the variable of a binding entry")
        if var in seen:
            raise ParseError(f"variable ?{var} bound twice")
        seen.add(var)
        referent = Referent(
            sexpr.symbol(name, "a referent name"), sexpr.symbol(sort, "a referent sort")
        )
        entries.append((var, referent))
    return Binding(tuple(entries))


# ---------------------------------------------------------------------------
# Binding validation


def complete_binding(fd: FieldDefinition, binding: Binding) -> Binding:
    """Propagate plain equality constraints into unbound variables; a
    variable bound twice keeps its ``Binding.referent``, the first."""
    bound = {v: binding.referent(v) for v, _ in binding.entries}
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
    completed = dict(complete_binding(fd, binding).entries)
    violations: list[Violation] = []

    for v, _ in binding.entries:
        if v not in fd.scheme.variables:
            violations.append(Violation("unknown-variable", f"?{v} is not a field variable"))
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

    def same(pair: Equal | Distinct) -> bool:
        return completed[pair.left].name == completed[pair.right].name

    for c in fd.constraints:
        if isinstance(c, OneOf):
            violated = all(decided(o.left, o.right) for o in c.options) and not any(
                same(o) for o in c.options
            )
        elif isinstance(c, Equal):
            violated = decided(c.left, c.right) and not same(c)
        else:
            violated = decided(c.left, c.right) and same(c)
        if violated:
            written = sexpr.write(_constraint_term(c))
            violations.append(Violation("constraint", f"{written} violated"))
    return violations
