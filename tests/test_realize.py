"""German NP inflection and sentence realization."""

import pytest

from emphase.discourse import EmphasisQ
from emphase.emphasis import Case, DirectCase, Oblique, Realization
from emphase.errors import (
    InputError,
    MissingMorphologyError,
    OrderingConflictError,
)
from emphase.lexicon import VerbEntry
from emphase.realize import Definiteness, Gender, NPSpec, inflect_np, realize

from conftest import verb_entry

STARRED = "Er schickt eine Einladung ihm."


def test_inflect_definite_masculine_accusative(bundle):
    spec = NPSpec("Schlüssel", Case.ACCUSATIVE, Gender.MASCULINE, Definiteness.DEFINITE)
    assert inflect_np(spec, bundle.morph_table) == "den Schlüssel"


def test_inflect_indefinite_feminine_accusative(bundle):
    spec = NPSpec("Einladung", Case.ACCUSATIVE, Gender.FEMININE, Definiteness.INDEFINITE)
    assert inflect_np(spec, bundle.morph_table) == "eine Einladung"


def test_inflect_dative_pronoun(bundle):
    spec = NPSpec("him", Case.DATIVE, Gender.MASCULINE, Definiteness.PRONOUN)
    assert inflect_np(spec, bundle.morph_table) == "ihm"


def test_missing_morphology_row(bundle):
    spec = NPSpec("Kind", Case.DATIVE, Gender.NEUTER, Definiteness.DEFINITE)
    with pytest.raises(MissingMorphologyError):
        inflect_np(spec, bundle.morph_table)


def _realize(bundle, golden_forms, pattern_name, lemma, binding, emphasis_q=None):
    return realize(
        golden_forms[pattern_name],
        verb_entry(bundle, lemma, pattern_name),
        binding,
        bundle.np_lexicon,
        bundle.morph_table,
        emphasis_q,
    )


def test_lose_sentence(bundle, golden_forms, binding_key):
    assert (
        _realize(bundle, golden_forms, "verlieren", "verlieren", binding_key)
        == "Sie verliert den Schlüssel."
    )


def test_throw_away_sentence(bundle, golden_forms, binding_key):
    assert (
        _realize(bundle, golden_forms, "wegwerfen", "wegwerfen", binding_key)
        == "Sie wirft den Schlüssel weg."
    )


def test_send_dative_sentence(bundle, golden_forms, binding_send):
    assert (
        _realize(
            bundle, golden_forms, "schicken-dative", "schicken", binding_send,
            EmphasisQ.EMPHATIC,
        )
        == "Er schickt ihm eine Einladung."
    )


def test_send_oblique_sentence(bundle, golden_forms, binding_send):
    assert (
        _realize(
            bundle, golden_forms, "schicken-oblique", "schicken", binding_send,
            EmphasisQ.NONEMPHATIC,
        )
        == "Er schickt eine Einladung an ihn."
    )


def test_verb_form_mismatch_rejected(bundle, golden_forms, binding_send):
    wrong_verb = verb_entry(bundle, "verlieren")
    with pytest.raises(InputError, match="lexicalize"):
        realize(
            golden_forms["schicken-dative"],
            wrong_verb,
            binding_send,
            bundle.np_lexicon,
            bundle.morph_table,
        )


def _synthetic_verb(form) -> VerbEntry:
    return VerbEntry(
        lemma="probe",
        field_name=form.field_name,
        emphasis=form.emphasis,
        blocking=form.blocking,
        event="probe",
        present_3sg="probt",
    )


def test_emphatic_recipient_must_not_be_final(bundle, forms_by_pattern, binding_send):
    # dative verbalized, nothing after it: the dative would sit in focus
    from emphase.emphasis import BlockingSet, EmphasisAssignment

    emphasis = EmphasisAssignment(frozenset({(0,), (1,), (1, 0), (1, 0, 0)}))
    blocking = BlockingSet(frozenset({"a2", "a3", "a4"}))
    form = forms_by_pattern[(emphasis, blocking)]
    with pytest.raises(OrderingConflictError, match="focus"):
        realize(
            form,
            _synthetic_verb(form),
            binding_send,
            bundle.np_lexicon,
            bundle.morph_table,
            EmphasisQ.EMPHATIC,
        )


def test_emphatic_without_dative_rejected(bundle, golden_forms, binding_send):
    form = golden_forms["schicken-oblique"]
    with pytest.raises(OrderingConflictError, match="dative"):
        realize(
            form,
            verb_entry(bundle, "schicken", "schicken-oblique"),
            binding_send,
            bundle.np_lexicon,
            bundle.morph_table,
            EmphasisQ.EMPHATIC,
        )


def _attempt_all(bundle, atlas, binding):
    """Realize every atlas form under the binding where the NP data
    allows it; yields (form, sentence)."""
    for form in atlas.forms:
        try:
            yield form, realize(
                form,
                _synthetic_verb(form),
                binding,
                bundle.np_lexicon,
                bundle.morph_table,
            )
        except MissingMorphologyError:
            continue


def test_starred_order_is_unreachable(bundle, atlas, binding_send, binding_key):
    """Dative constituents always precede accusative ones."""
    realized = 0
    for binding in (binding_send, binding_key):
        for form, sentence in _attempt_all(bundle, atlas, binding):
            realized += 1
            assert sentence != STARRED
            datives = form.realization.variables_with(Case.DATIVE)
            accusatives = form.realization.variables_with(Case.ACCUSATIVE)
            if datives and accusatives:
                dat = _np_text(bundle, binding, datives[0], Case.DATIVE)
                acc = _np_text(bundle, binding, accusatives[0], Case.ACCUSATIVE)
                assert sentence.find(dat) < sentence.find(acc)
    assert realized >= 20  # both bindings cover the atlas


def _np_text(bundle, binding, variable, case):
    from emphase.realize import np_spec_for

    referent = binding.referent(variable)
    return inflect_np(np_spec_for(referent.name, case, bundle.np_lexicon), bundle.morph_table)


def test_verb_second_and_final_period(bundle, atlas, binding_send, binding_key):
    for binding in (binding_send, binding_key):
        for form, sentence in _attempt_all(bundle, atlas, binding):
            assert sentence.endswith(".")
            words = sentence[:-1].split()
            assert "probt" in words
            subject = _np_text(
                bundle, binding, form.realization.variables_with(Case.NOMINATIVE)[0],
                Case.NOMINATIVE,
            )
            # the finite verb comes right after the subject NP
            assert words[len(subject.split())] == "probt"


def test_direct_cases_appear_with_their_assigned_case(bundle, atlas, binding_key):
    for form, sentence in _attempt_all(bundle, atlas, binding_key):
        for case in (Case.DATIVE, Case.ACCUSATIVE):
            for variable in form.realization.variables_with(case):
                assert _np_text(bundle, binding_key, variable, case) in sentence


def _recased(form, cases):
    """``form`` with the direct cases of some variables replaced."""
    entries = tuple((v, DirectCase(cases[v]) if v in cases else r)
                    for v, r in form.realization.entries)
    return form._replace(realization=Realization(entries))


@pytest.mark.parametrize("cases, message", [
    ({"a": Case.ACCUSATIVE}, "exactly one nominative"),
    ({"a1": Case.NOMINATIVE}, "exactly one nominative"),
    ({"a": Case.GENITIVE, "a1": Case.GENITIVE}, "exactly one nominative"),
    ({"a1": Case.GENITIVE}, "genitive participants"),
])
def test_a_form_the_template_cannot_take_fails_every_time(
    bundle, golden_forms, binding_send, cases, message
):
    # the dative frame of schicken: a nominative, a1 dative, a2 accusative
    form = _recased(golden_forms["schicken-dative"], cases)
    errors = []
    for _ in range(2):
        with pytest.raises(InputError, match=message) as caught:
            realize(form, _synthetic_verb(form), binding_send,
                    bundle.np_lexicon, bundle.morph_table)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_case_layout_groups_the_realization_in_case_frame_order(atlas):
    for form in atlas.forms:
        entries = form.realization.entries
        obliques = tuple((v, r) for v, r in entries if isinstance(r, Oblique))
        groups = tuple(form.realization.variables_with(case) for case in Case)
        assert form.case_layout == (*groups, obliques)
        assert form.case_layout is form.case_layout
