"""Bundle loading, frame selection, and end-to-end generation."""

import gc
import weakref
from collections import Counter

import pytest

from emphase import lexicon, pipeline
from emphase.cli import cmd_forms
from emphase.discourse import EmphasisQ, parse_script, run_script
from emphase.emphasis import Case, DirectCase, Oblique
from emphase.errors import FocusConflictError, InputError, RuleGapError
from emphase.pipeline import (
    Config,
    check_bundle,
    form_for_entry,
    generate,
    load_binding,
    load_bundle,
    read_data,
    recipient_variable,
)
from emphase.spl import serialize_spl

from conftest import PATTERNS


def test_atlas_canonical_order_starts_with_dative_frame(atlas):
    first = atlas.forms[0]
    assert (first.emphasis, first.blocking) == PATTERNS["schicken-dative"]


def test_form_for_entry_matches_atlas(bundle, forms_by_pattern):
    for entry in bundle.verbs:
        built = form_for_entry(bundle, entry)
        assert built == forms_by_pattern[(entry.emphasis, entry.blocking)]


def test_recipient_variable_per_frame(bundle, golden_forms):
    assert recipient_variable(golden_forms["schicken-dative"], bundle.role_maps) == "a1"
    assert recipient_variable(golden_forms["schicken-oblique"], bundle.role_maps) == "a1"
    assert recipient_variable(golden_forms["verlieren"], bundle.role_maps) is None


def test_generate_picks_frame_by_emphasis(bundle, binding_send):
    emphatic = generate(bundle, "schicken", binding_send, emphasis_q=EmphasisQ.EMPHATIC)
    assert emphatic.form.realization.of("a1") == DirectCase(Case.DATIVE)
    nonemphatic = generate(
        bundle, "schicken", binding_send, emphasis_q=EmphasisQ.NONEMPHATIC
    )
    assert nonemphatic.form.realization.of("a1") == Oblique("an", Case.ACCUSATIVE)


def test_generate_requires_decision_for_ambiguous_verbs(bundle, binding_send):
    with pytest.raises(InputError, match="several frames"):
        generate(bundle, "schicken", binding_send)


def test_single_frame_verbs_need_no_decision(bundle, binding_key):
    result = generate(bundle, "wegwerfen", binding_key)
    assert result.sentence == "Sie wirft den Schlüssel weg."
    assert result.emphasis_q is None
    assert ":emphasis-q" not in serialize_spl(result.plan)


def test_script_state_drives_frame_choice(bundle, binding_send, script_path):
    state = run_script(parse_script(read_data(script_path)))
    result = generate(bundle, "schicken", binding_send, script_state=state)
    assert result.emphasis_q is EmphasisQ.EMPHATIC
    assert result.sentence == "Er schickt ihm eine Einladung."


def test_focus_on_actee_does_not_conflict(bundle, binding_send, script_path):
    state = run_script(parse_script(read_data(script_path)))
    result = generate(
        bundle, "schicken", binding_send, script_state=state, focus_role="actee"
    )
    assert result.emphasis_q is EmphasisQ.EMPHATIC


def test_focus_role_must_be_a_participant_role(bundle, binding_send):
    for q in EmphasisQ:
        with pytest.raises(InputError, match="'recipent'"):
            generate(bundle, "schicken", binding_send, emphasis_q=q, focus_role="recipent")


def test_repeated_generate_fills_no_role_map(bundle, binding_send, script_path, monkeypatch):
    """Each frame keeps its recipient variable, and each pattern its
    selection: a second request computes no participants."""
    state = run_script(parse_script(read_data(script_path)))
    requests = [{"script_state": state}] + [{"emphasis_q": q} for q in EmphasisQ]
    for options in requests:
        generate(bundle, "schicken", binding_send, **options)
    calls, original = [], lexicon.participants

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, "participants", counted)
    monkeypatch.setattr(lexicon, "participants", counted)
    for options in requests:
        generate(bundle, "schicken", binding_send, **options)
    assert calls == []


def test_explicit_emphatic_focus_recipient_refused(bundle, binding_send):
    with pytest.raises(FocusConflictError):
        generate(
            bundle, "schicken", binding_send,
            emphasis_q=EmphasisQ.EMPHATIC, focus_role="recipient",
        )


def test_script_without_recipient_mention_gives_oblique_frame(bundle, binding_send):
    # nothing established in the discourse: the recipient is new
    state = run_script(parse_script("(sentence (mentions glassworks))"))
    result = generate(bundle, "schicken", binding_send, script_state=state)
    assert result.emphasis_q is EmphasisQ.NONEMPHATIC
    assert result.sentence == "Er schickt eine Einladung an ihn."


def test_load_binding_rejects_violations(bundle):
    with pytest.raises(InputError, match="distinct"):
        load_binding(
            bundle,
            """(binding (ref ?a bob person) (ref ?a1 bob person)
                        (ref ?a2 key object) (ref ?a3 bob person)
                        (ref ?a4 key object))""",
        )


def test_load_binding_completes_equalities(bundle):
    binding = load_binding(
        bundle,
        """(binding (ref ?a she person) (ref ?a1 x1 person)
                    (ref ?a2 key object) (ref ?a3 she person))""",
    )
    assert binding.referent("a4").name == "key"


def test_check_bundle_ok(bundle):
    report = check_bundle(bundle)
    assert report.ok
    assert any("total" in line for line in report.lines)
    assert any("disjoint" in line for line in report.lines)


def test_bundle_pieces_are_cached(bundle):
    assert bundle.field is bundle.field
    assert bundle.case_frame is bundle.case_frame


def test_generate_derives_forms_and_selections_once(monkeypatch, binding_send, binding_key):
    bundle = load_bundle(Config.default())
    derived, selected = Counter(), Counter()
    derive, select = pipeline.form_for_entry, pipeline.select_process_type

    def counting_derive(b, entry):
        derived[entry] += 1
        return derive(b, entry)

    def counting_select(form, *rules):
        selected[(form.emphasis, form.blocking)] += 1
        return select(form, *rules)

    monkeypatch.setattr(pipeline, "form_for_entry", counting_derive)
    monkeypatch.setattr(pipeline, "select_process_type", counting_select)
    for _ in range(3):
        generate(bundle, "schicken", binding_send, emphasis_q=EmphasisQ.EMPHATIC)
        generate(bundle, "verlieren", binding_key)
    assert derived == Counter({e: 1 for e in bundle.verbs if e.lemma != "wegwerfen"})
    # only the chosen frame of schicken is classified
    assert selected == Counter(
        {PATTERNS["schicken-dative"]: 1, PATTERNS["verlieren"]: 1}
    )
    for _ in range(3):
        generate(bundle, "schicken", binding_send, emphasis_q=EmphasisQ.NONEMPHATIC)
        generate(bundle, "wegwerfen", binding_key)
    assert derived == Counter({e: 1 for e in bundle.verbs})
    assert selected == Counter({pattern: 1 for pattern in PATTERNS.values()})


def test_check_and_forms_classify_each_form_once(monkeypatch):
    bundle = load_bundle(Config.default())
    enumerated, selected = Counter(), Counter()
    enumerate_forms, select = pipeline.enumerate_semantic_forms, pipeline.select_process_type

    def counting_enumerate(*args):
        enumerated["forms"] += 1
        return enumerate_forms(*args)

    def counting_select(form, *rules):
        selected[(form.emphasis, form.blocking)] += 1
        return select(form, *rules)

    monkeypatch.setattr(pipeline, "enumerate_semantic_forms", counting_enumerate)
    monkeypatch.setattr(pipeline, "select_process_type", counting_select)
    assert check_bundle(bundle).ok
    for fmt in ("text", "structured"):
        cmd_forms(bundle, fmt)
    assert enumerated == Counter(forms=1)
    assert selected == Counter({pattern: 1 for pattern in bundle.atlas})
    assert len(bundle.atlas) == len(bundle.enumerate_forms().forms) == 15


def test_a_bundle_with_rule_gaps_in_its_atlas_is_freed_without_the_collector():
    # a stored error that kept its traceback would hold the bundle in a cycle
    bundle = load_bundle(Config.default())
    assert any(isinstance(outcome, RuleGapError) for _, outcome in bundle.atlas.values())
    freed = weakref.ref(bundle)
    gc.disable()
    try:
        del bundle
        assert freed() is None
    finally:
        gc.enable()


def test_bad_entry_fails_every_call_and_only_its_lemma(tmp_path, binding_key):
    lexicon = tmp_path / "with-bad.lex"
    lexicon.write_text(
        read_data(Config.default().lexicon_path)
        + """(verb "zerfallen" (field change-of-possession)
               (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
               (blocked ?a ?a1 ?a2 ?a3 ?a4)
               (event decay) (present-3sg "zerfällt"))""",
        encoding="utf-8",
    )
    config = Config.default()
    config.lexicon_path = lexicon
    bundle = load_bundle(config)
    for _ in range(2):
        with pytest.raises(InputError, match="'zerfallen' blocks every argument"):
            generate(bundle, "zerfallen", binding_key)
        result = generate(bundle, "wegwerfen", binding_key)
        assert result.sentence == "Sie wirft den Schlüssel weg."


def test_default_config_paths_readable():
    config = Config.default()
    bundle = load_bundle(config)
    assert bundle.load_all() is bundle
