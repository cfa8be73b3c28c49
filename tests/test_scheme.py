"""Field parsing, printing, node addressing, and binding validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from emphase.errors import ParseError, SchemeError
from emphase.scheme import (
    Binding,
    Distinct,
    Equal,
    FieldDefinition,
    OneOf,
    Referent,
    Variable,
    complete_binding,
    parse_binding,
    parse_field,
    print_field,
    validate_binding,
)

from bruteforce import random_field, random_scheme, wrap_scheme

MINIMAL = "(field f (scheme (have ?x ?y)) (emphasis-start ()))"


def test_shipped_field_shape(field):
    assert field.name == "change-of-possession"
    assert field.emphasis_start == (1,)
    assert field.scheme.variables == ("a", "a1", "a2", "a3", "a4")
    assert field.scheme.node_at(()).predicate == "cause"
    assert field.scheme.node_at((1, 1, 0, 0)).predicate == "have"
    assert field.optional_branches == ((0,),)
    assert len(field.scheme.paths) == 8


def test_shipped_field_constraints(field):
    assert OneOf((Equal("a", "a1"), Equal("a", "a3"))) in field.constraints
    assert Distinct("a1", "a3") in field.constraints
    assert Equal("a2", "a4") in field.constraints


def test_minimal_field():
    fd = parse_field(MINIMAL)
    assert fd.emphasis_start == ()
    assert fd.scheme.variables == ("x", "y")
    assert fd.optional_branches == ()
    assert fd.scheme.node_at(()).is_basic


def test_variable_sites(field):
    assert field.scheme.variable_site("a") == ((0,), 1)
    assert field.scheme.variable_site("a2") == ((1, 0, 0), 2)
    assert field.scheme.variable_site("a4") == ((1, 1, 0, 0), 2)


def test_every_path_resolves_and_reserializes(field):
    scheme = field.scheme
    for path in scheme.paths:
        node = scheme.node_at(path)
        # recompute the path of the resolved node by structural search
        matches = [p for p in scheme.paths if scheme.node_at(p) is node]
        assert matches == [path]


def _walk(node, path=()):
    """Preorder path -> node and left-to-right variable -> site tables,
    by plain recursion over the tree."""
    nodes, sites = {path: node}, {}
    for i, arg in enumerate(node.args):
        if isinstance(arg, Variable):
            sites[arg.name] = (path, i + 1)
        else:
            sub_nodes, sub_sites = _walk(arg, path + (i,))
            nodes.update(sub_nodes)
            sites.update(sub_sites)
    return nodes, sites


def _resolve(root, path):
    """The node at ``path``, or the message for the first index that
    leaves the tree."""
    node = root
    for depth, i in enumerate(path):
        if not 0 <= i < len(node.args) or isinstance(node.args[i], Variable):
            return f"path {list(path)} out of range at index {depth}"
        node = node.args[i]
    return node


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scheme_tables_match_a_plain_walk(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    if rng.random() < 0.5:
        scheme = wrap_scheme(scheme, rng.choice(["et", "not"]), rng.randint(1, 3))
    nodes, sites = _walk(scheme.root)
    assert scheme.paths == tuple(nodes)
    assert scheme.variables == tuple(sites)
    for name, site in sites.items():
        assert scheme.variable_site(name) == site
    with pytest.raises(SchemeError, match=r"^unknown variable \?nowhere$"):
        scheme.variable_site("nowhere")
    for path, node in nodes.items():
        assert scheme.node_at(path) is node
    for _ in range(20):
        path = rng.choice(scheme.paths) + tuple(
            rng.randint(-1, 3) for _ in range(rng.randint(1, 3))
        )
        expected = _resolve(scheme.root, path)
        if isinstance(expected, str):
            with pytest.raises(SchemeError) as info:
                scheme.node_at(path)
            assert str(info.value) == expected
        else:
            assert scheme.node_at(path) is expected


def test_emphasis_start_out_of_range():
    text = "(field f (scheme (et (have ?x) (have ?y))) (emphasis-start (3)))"
    with pytest.raises(SchemeError, match="out of range"):
        parse_field(text)


def test_mixed_arguments_rejected():
    with pytest.raises(SchemeError, match="mixes"):
        parse_field("(field f (scheme (p ?x (q ?y))) (emphasis-start ()))")


def test_duplicate_variable_rejected():
    with pytest.raises(SchemeError, match="more than once"):
        parse_field("(field f (scheme (et (have ?x) (have ?x))) (emphasis-start ()))")


def test_dangling_constraint_variable_rejected():
    text = "(field f (scheme (have ?x ?y)) (emphasis-start ()) (coref (= ?x ?z)))"
    with pytest.raises(SchemeError, match=r"\?z"):
        parse_field(text)


def test_variable_name_must_be_a_symbol():
    # ?5 would name a variable that no output could write back as a symbol
    with pytest.raises(ParseError, match=r"must be a \?variable, got \?5"):
        parse_field("(field f (scheme (have ?5 ?y)) (emphasis-start ()))")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_field("(field f (scheme (have ?x ?y)")
    assert exc.value.line is not None


def test_explicit_optional_branch_clause():
    text = """(field f
                (scheme (p (q (have ?x)) (q (have ?y)) (q (have ?z))))
                (emphasis-start (0))
                (optional-branch (2)))"""
    fd = parse_field(text)
    assert fd.optional_branches == ((2,),)
    assert parse_field(print_field(fd)) == fd


def test_optional_branch_must_not_repeat_start():
    text = """(field f (scheme (p (have ?x) (have ?y)))
                (emphasis-start (0)) (optional-branch (0)))"""
    with pytest.raises(SchemeError, match="repeat"):
        parse_field(text)


def test_round_trip_shipped(field):
    assert parse_field(print_field(field)) == field


def test_round_trip_minimal():
    fd = parse_field(MINIMAL)
    assert parse_field(print_field(fd)) == fd


def test_print_is_deterministic(field):
    assert print_field(field) == print_field(parse_field(print_field(field)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_fields(seed):
    fd = random_field(random.Random(seed))
    assert parse_field(print_field(fd)) == fd


# ---------------------------------------------------------------------------
# Bindings


def test_binding_ok_via_one_of_branch(field):
    binding = parse_binding(
        """(binding (ref ?a she person) (ref ?a1 x1 person) (ref ?a2 key object)
                    (ref ?a3 she person) (ref ?a4 key object))"""
    )
    assert validate_binding(field, binding) == []


def test_binding_distinct_violated(field):
    binding = parse_binding(
        """(binding (ref ?a bob person) (ref ?a1 bob person) (ref ?a2 key object)
                    (ref ?a3 bob person) (ref ?a4 key object))"""
    )
    violations = validate_binding(field, binding)
    assert any("distinct" in str(v) for v in violations)


def test_binding_equal_violated(field):
    binding = parse_binding(
        """(binding (ref ?a she person) (ref ?a1 x1 person) (ref ?a2 key object)
                    (ref ?a3 she person) (ref ?a4 invitation object))"""
    )
    violations = validate_binding(field, binding)
    assert [v.kind for v in violations] == ["constraint"]
    assert "?a2" in str(violations[0]) and "?a4" in str(violations[0])


def test_missing_variables_reported_each(field):
    binding = parse_binding("(binding (ref ?a she person))")
    violations = validate_binding(field, binding)
    missing = [v for v in violations if v.kind == "missing-variable"]
    assert len(missing) == 4


def test_sort_conflict_reported(field):
    binding = parse_binding(
        """(binding (ref ?a she person) (ref ?a1 x1 person) (ref ?a2 key object)
                    (ref ?a3 she object) (ref ?a4 key object))"""
    )
    violations = validate_binding(field, binding)
    assert any(v.kind == "sort-conflict" for v in violations)


def test_equality_propagation_completes_binding(field):
    binding = parse_binding(
        """(binding (ref ?a she person) (ref ?a1 x1 person) (ref ?a2 key object)
                    (ref ?a3 she person))"""
    )
    completed = complete_binding(field, binding)
    assert completed.referent("a4").name == "key"
    assert validate_binding(field, binding) == []


def test_duplicate_binding_entry_rejected():
    with pytest.raises(ParseError, match="twice"):
        parse_binding("(binding (ref ?a she person) (ref ?a she person))")


def test_constraints_of_one_shape_differ_by_kind():
    assert Equal("a", "b") != Distinct("a", "b")
    assert not Equal("a", "b") == Distinct("a", "b")
    assert Equal("a", "b") == Equal("a", "b")
    assert {Equal("a", "b"): 1}.get(Distinct("a", "b")) is None
    same = parse_field("(field f (scheme (have ?a ?b)) (emphasis-start ()) (coref (= ?a ?b)))")
    other = parse_field(
        "(field f (scheme (have ?a ?b)) (emphasis-start ()) (coref (distinct ?a ?b)))"
    )
    assert same != other
    assert same == parse_field(print_field(same))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_validation_monotone_in_constraints(seed):
    """Adding constraints never removes a violation."""
    rng = random.Random(seed)
    fd = random_field(rng)
    if not fd.constraints:
        return
    names = ["x1", "x2", "x3"]
    binding = Binding(
        tuple((v, Referent(rng.choice(names), "thing")) for v in fd.scheme.variables)
    )
    cut = rng.randrange(len(fd.constraints))
    smaller = FieldDefinition(
        fd.name, fd.scheme, fd.emphasis_start, fd.constraints[:cut], fd.optional_branches
    )
    fewer = {str(v) for v in validate_binding(smaller, binding)}
    more = {str(v) for v in validate_binding(fd, binding)}
    assert fewer <= more
