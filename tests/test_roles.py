"""Role-rule application and case-frame derivation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from emphase.errors import MissingRuleError
from emphase.roles import (
    NEG,
    POS,
    Role,
    RoleRuleTable,
    apply_rule,
    derive_case_frame,
    missing_rules,
    parse_rule_table,
)
from emphase.scheme import parse_field

from bruteforce import case_frame_oracle, random_scheme, random_table, wrap_scheme

LOCAT = Role("locat", "have")
GOAL = Role("goal", "have")
SOURCE = Role("source", "have")

EXPECTED_FRAME = {
    "a": Role("agens", "act"),
    "a1": Role("goal", "have"),
    "a2": Role("to-obj", "have"),
    "a3": Role("source", "have"),
    "a4": Role("from-obj", "have"),
}


def test_bec_specializes_locat_to_goal(bundle):
    assert apply_rule(bundle.rule_table, "bec", LOCAT, POS) == GOAL


def test_et_never_changes_a_role(bundle):
    assert apply_rule(bundle.rule_table, "et", GOAL, POS) == GOAL
    assert apply_rule(bundle.rule_table, "et", SOURCE, NEG) == SOURCE


def test_bec_under_negation_yields_source(bundle):
    assert apply_rule(bundle.rule_table, "bec", LOCAT, NEG) == SOURCE


def test_cause_keeps_goal_in_its_second_argument(bundle):
    assert apply_rule(bundle.rule_table, "cause", GOAL, POS) == GOAL


def test_et_entries_are_all_identity(bundle):
    table = bundle.rule_table
    assert "et" in table.identities
    for (pred, _pol, incoming), out in table.modifiers.items():
        if pred == "et":
            assert out == incoming


def test_shipped_case_frame(bundle):
    frame = derive_case_frame(bundle.field.scheme, bundle.rule_table)
    assert frame == EXPECTED_FRAME
    assert list(frame) == ["a", "a1", "a2", "a3", "a4"]


def test_bare_have_gets_initial_values(bundle):
    fd = parse_field("(field f (scheme (have ?x ?y)) (emphasis-start ()))")
    frame = derive_case_frame(fd.scheme, bundle.rule_table)
    assert frame == {"x": Role("locat", "have"), "y": Role("obj", "have")}


def test_et_wrapping_changes_nothing(bundle):
    fd = parse_field("(field f (scheme (et (et (have ?x ?y)))) (emphasis-start ()))")
    frame = derive_case_frame(fd.scheme, bundle.rule_table)
    assert frame == {"x": Role("locat", "have"), "y": Role("obj", "have")}


def test_missing_rule_names_the_triple():
    table = parse_rule_table("(init have 1 (locat have))")
    fd = parse_field("(field f (scheme (bec (have ?x ?y))) (emphasis-start ()))")
    with pytest.raises(MissingRuleError, match="have"):
        derive_case_frame(fd.scheme, table)
    with pytest.raises(MissingRuleError, match="argument 2"):
        derive_case_frame(
            parse_field("(field f (scheme (have ?x ?y)) (emphasis-start ()))").scheme,
            table,
        )


def test_missing_rules_reports_every_gap(bundle):
    table = parse_rule_table("(init have 1 (locat have))")
    fd = parse_field("(field f (scheme (bec (have ?x ?y))) (emphasis-start ()))")
    gaps = missing_rules(fd.scheme, table)
    assert len(gaps) == 2  # no init for position 2, no bec rule for locat
    assert not missing_rules(bundle.field.scheme, bundle.rule_table)


def test_derivation_raises_the_first_gap_missing_rules_reports():
    table = parse_rule_table("(init have 1 (locat have))")
    fd = parse_field("(field f (scheme (bec (have ?x ?y))) (emphasis-start ()))")
    gaps = missing_rules(fd.scheme, table)
    assert gaps == [
        "no initial role for argument 2 of basic predicate 'have'",
        "no role rule for (bec pos <locat, have>)",
    ]
    with pytest.raises(MissingRuleError) as info:
        derive_case_frame(fd.scheme, table)
    assert str(info.value) == gaps[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derivation_fails_exactly_when_rules_are_missing(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    table = random_table(rng, scheme)
    # drop some rules so that gaps appear
    table = RoleRuleTable(
        {k: v for k, v in table.initial.items() if rng.random() < 0.9},
        {k: v for k, v in table.modifiers.items() if rng.random() < 0.9},
        table.flips,
        table.identities,
    )
    gaps = missing_rules(scheme, table)
    if gaps:
        with pytest.raises(MissingRuleError) as info:
            derive_case_frame(scheme, table)
        assert str(info.value) == gaps[0]
    else:
        assert derive_case_frame(scheme, table) == case_frame_oracle(scheme, table)


def test_duplicate_rule_rejected():
    from emphase.errors import ParseError

    with pytest.raises(ParseError, match="duplicate"):
        parse_rule_table("(init have 1 (locat have)) (init have 1 (obj have))")


def test_explicit_modify_overrides_identity_fallback():
    table = parse_rule_table(
        "(identity et) (modify et pos (locat have) (goal have))"
    )
    assert apply_rule(table, "et", LOCAT, POS) == GOAL
    assert apply_rule(table, "et", LOCAT, NEG) == LOCAT
    assert apply_rule(table, "et", GOAL, POS) == GOAL


def test_flip_predicate_defaults_to_identity_role_map():
    table = parse_rule_table("(flip not)")
    assert apply_rule(table, "not", LOCAT, POS) == LOCAT
    assert apply_rule(table, "not", LOCAT, NEG) == LOCAT


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_frame_matches_path_fold_oracle(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    table = random_table(rng, scheme)
    assert derive_case_frame(scheme, table) == case_frame_oracle(scheme, table)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_et_layers_preserve_frame(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    table = random_table(rng, scheme)
    wrapped = wrap_scheme(scheme, "et", rng.randint(1, 3))
    assert derive_case_frame(wrapped, table) == derive_case_frame(scheme, table)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_double_negation_preserves_frame(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    table = random_table(rng, scheme)
    wrapped = wrap_scheme(scheme, "not", 2)
    assert derive_case_frame(wrapped, table) == derive_case_frame(scheme, table)
