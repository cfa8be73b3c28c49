"""Verb matching and process-type selection."""

import pytest

from emphase.emphasis import BlockingSet, EmphasisAssignment
from emphase.errors import (
    AmbiguousProcessError,
    OverlappingRulesError,
    ParseError,
    SchemeError,
    UnclassifiedFormError,
)
from emphase.lexicon import (
    AllOf,
    AnyOf,
    Negation,
    RoleMapRule,
    RoleTest,
    evaluate_condition,
    match_verbs,
    parse_lexicon,
    parse_process_rules,
    parse_upper_model,
    select_process_type,
)

from conftest import PATTERNS


def test_lose_pattern_matches_verlieren(bundle, golden_forms):
    entries = match_verbs(golden_forms["verlieren"], bundle.verbs)
    assert [e.lemma for e in entries] == ["verlieren"]


def test_dative_pattern_matches_schicken(bundle, golden_forms):
    entries = match_verbs(golden_forms["schicken-dative"], bundle.verbs)
    assert [e.lemma for e in entries] == ["schicken"]
    assert entries[0].event == "send"


def test_unlexicalized_pattern_matches_nothing(bundle, forms_by_pattern):
    lonely = [
        form
        for (emphasis, blocking), form in forms_by_pattern.items()
        if (emphasis, blocking) not in PATTERNS.values()
    ]
    assert lonely
    for form in lonely:
        assert match_verbs(form, bundle.verbs) == []


def test_each_shipped_entry_matches_exactly_one_form(bundle, atlas):
    for entry in bundle.verbs:
        matching = [f for f in atlas.forms if entry.matches(f)]
        assert len(matching) == 1, entry.lemma


def test_separable_prefix_only_on_wegwerfen(bundle):
    prefixes = {e.lemma: e.prefix for e in bundle.verbs}
    assert prefixes["wegwerfen"] == "weg"
    assert prefixes["verlieren"] is None


# ---------------------------------------------------------------------------
# Process-type selection


def test_dispositive_for_lose_and_throw_away(bundle, golden_forms):
    for name in ("verlieren", "wegwerfen"):
        selection = select_process_type(
            golden_forms[name], bundle.process_rules, bundle.role_maps, bundle.upper_model
        )
        assert selection.um_type == "dispositive-material-action"


def test_directed_action_with_participants(bundle, golden_forms):
    selection = select_process_type(
        golden_forms["schicken-dative"],
        bundle.process_rules,
        bundle.role_maps,
        bundle.upper_model,
    )
    assert selection.um_type == "directed-action"
    assert selection.participants == (
        ("actor", "a"),
        ("recipient", "a1"),
        ("actee", "a2"),
    )

    selection = select_process_type(
        golden_forms["schicken-oblique"],
        bundle.process_rules,
        bundle.role_maps,
        bundle.upper_model,
    )
    assert selection.um_type == "directed-action"
    assert selection.participants == (
        ("actor", "a"),
        ("recipient", "a1"),
        ("actee", "a4"),
    )


def test_dispositive_actor_falls_back_to_source(bundle, golden_forms):
    selection = select_process_type(
        golden_forms["verlieren"],
        bundle.process_rules,
        bundle.role_maps,
        bundle.upper_model,
    )
    assert selection.participants == (("actor", "a3"), ("actee", "a4"))


def test_unmatched_form_raises_unclassified(bundle, forms_by_pattern):
    emphasis = EmphasisAssignment(
        frozenset({(0,), (1,), (1, 0), (1, 0, 0)})
    )
    blocking = BlockingSet(frozenset({"a1", "a3", "a4"}))
    form = forms_by_pattern[(emphasis, blocking)]
    with pytest.raises(UnclassifiedFormError):
        select_process_type(
            form, bundle.process_rules, bundle.role_maps, bundle.upper_model
        )


def test_rules_disjoint_over_whole_atlas(bundle, atlas):
    for form in atlas.forms:
        matches = [
            r for r in bundle.process_rules if evaluate_condition(r.condition, form)
        ]
        assert len(matches) <= 1


def test_overlapping_rules_and_non_injective_map_are_told_apart(bundle, golden_forms):
    form = golden_forms["schicken-dative"]
    rules, _ = parse_process_rules(
        "(process-rule directed-action (unblocked goal))"
        "(process-rule action (unblocked agens))"
    )
    with pytest.raises(OverlappingRulesError, match="not disjoint"):
        select_process_type(form, rules, bundle.role_maps)
    clashing = bundle.role_maps + [RoleMapRule("beneficiary", ("goal",))]
    with pytest.raises(AmbiguousProcessError, match="injective") as exc:
        select_process_type(form, bundle.process_rules, clashing)
    assert not isinstance(exc.value, OverlappingRulesError)


def test_both_dispositive_and_directed_occur(bundle, atlas):
    seen = set()
    for form in atlas.forms:
        try:
            seen.add(
                select_process_type(
                    form, bundle.process_rules, bundle.role_maps, bundle.upper_model
                ).um_type
            )
        except UnclassifiedFormError:
            seen.add(None)
    assert {"dispositive-material-action", "directed-action", None} <= seen


def test_upper_model_subsumption(bundle):
    um = bundle.upper_model
    assert "person" in um and "object" in um


def test_upper_model_cycle_rejected():
    with pytest.raises(ParseError, match="cycle"):
        parse_upper_model("(um-type a b) (um-type b a)")


# ---------------------------------------------------------------------------
# Lexicon validation


def test_lexicon_rejects_illegal_emphasis(bundle):
    text = """(verb "x" (field change-of-possession)
                 (emphasis (0)) (blocked ?a1)
                 (event x) (present-3sg "x"))"""
    with pytest.raises(SchemeError, match="illegal emphasis"):
        parse_lexicon(text, bundle.field)


def test_lexicon_rejects_unknown_blocked_variable(bundle):
    text = """(verb "x" (field change-of-possession)
                 (emphasis (1) (1 0) (1 0 0)) (blocked ?zz)
                 (event x) (present-3sg "x"))"""
    with pytest.raises(SchemeError, match="zz"):
        parse_lexicon(text, bundle.field)


def test_lexicon_rejects_duplicate_patterns(bundle):
    entry = """(verb "{}" (field change-of-possession)
                 (emphasis (1) (1 0) (1 0 0)) (blocked ?a)
                 (event x) (present-3sg "x"))"""
    text = entry.format("one") + entry.format("two")
    with pytest.raises(ParseError, match="patterns are keys"):
        parse_lexicon(text, bundle.field)


def test_conditions_of_one_shape_differ_by_kind():
    test = RoleTest("unblocked", "goal")
    assert AllOf((test,)) != AnyOf((test,))
    assert Negation(Negation(test)) != AllOf((test,))
    assert AllOf((test,)) == AllOf((RoleTest("unblocked", "goal"),))
    rules, _ = parse_process_rules("(process-rule t (and (unblocked goal)))")
    assert rules != parse_process_rules("(process-rule t (or (unblocked goal)))")[0]
