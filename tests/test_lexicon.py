"""Verb matching and process-type selection."""

import pytest

import emphase.emphasis as emphasis_module
from emphase.emphasis import BlockingSet, EmphasisAssignment
from emphase.errors import (
    AmbiguousProcessError,
    OverlappingRulesError,
    ParseError,
    SchemeError,
    UnclassifiedFormError,
)
from emphase.lexicon import (
    RoleMapRule,
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


def test_unclassified_form_names_its_pattern_as_a_lexicon_entry_does(bundle, golden_forms):
    rules = [r for r in bundle.process_rules if r.um_type != "directed-action"]
    with pytest.raises(UnclassifiedFormError) as raised:
        select_process_type(
            golden_forms["schicken-dative"], rules, bundle.role_maps, bundle.upper_model
        )
    assert str(raised.value) == (
        "no process-type rule matches the form "
        "(emphasis (0) (1) (1 0) (1 0 0)) (blocked ?a3 ?a4)"
    )


def test_an_unclassified_form_writes_its_pattern_only_when_read(
    bundle, golden_forms, monkeypatch
):
    written = []
    monkeypatch.setattr(
        emphasis_module, "pattern_text", lambda e, b: written.append((e, b)) or "P"
    )
    form = golden_forms["schicken-dative"]
    rules = [r for r in bundle.process_rules if r.um_type != "directed-action"]
    with pytest.raises(UnclassifiedFormError) as raised:
        select_process_type(form, rules, bundle.role_maps, bundle.upper_model)
    assert written == []
    assert str(raised.value) == "no process-type rule matches the form P"
    assert written == [(form.emphasis, form.blocking)]


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
        select_process_type(form, rules, bundle.role_maps, bundle.upper_model)
    clashing = bundle.role_maps + [RoleMapRule("beneficiary", ("goal",))]
    with pytest.raises(AmbiguousProcessError, match="injective") as exc:
        select_process_type(form, bundle.process_rules, clashing, bundle.upper_model)
    assert not isinstance(exc.value, OverlappingRulesError)


def test_overlapping_rules_name_the_form_they_overlap_on(bundle, golden_forms):
    rules, _ = parse_process_rules("(process-rule directed-action (unblocked goal))" * 2)
    with pytest.raises(OverlappingRulesError) as raised:
        select_process_type(
            golden_forms["schicken-dative"], rules, bundle.role_maps, bundle.upper_model
        )
    assert str(raised.value) == (
        "process-type rules are not disjoint: directed-action and directed-action "
        "(emphasis (0) (1) (1 0) (1 0 0)) (blocked ?a3 ?a4)"
    )


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


def test_lexicon_entry_without_a_field_clause_names_the_clauses_it_needs(bundle):
    with pytest.raises(ParseError) as refused:
        parse_lexicon('(verb "x")', bundle.field)
    assert str(refused.value) == (
        "verb 'x' needs field, emphasis, blocked, event and present-3sg clauses"
    )


def test_lexicon_rejects_duplicate_patterns(bundle):
    entry = """(verb "{}" (field change-of-possession)
                 (emphasis (1) (1 0) (1 0 0)) (blocked ?a)
                 (event x) (present-3sg "x"))"""
    text = entry.format("one") + entry.format("two")
    with pytest.raises(ParseError, match="patterns are keys"):
        parse_lexicon(text, bundle.field)


def test_conditions_of_one_shape_differ_by_kind():
    def condition(text):
        (rule,), _ = parse_process_rules(f"(process-rule t {text})")
        return rule.condition

    assert condition("(and (unblocked goal))") != condition("(or (unblocked goal))")
    assert condition("(not (not (unblocked goal)))") != condition("(and (unblocked goal))")
    assert condition("(and (unblocked goal))") == ("and", ("unblocked", "goal"))
