"""Bundle loading, frame selection, and end-to-end generation."""

import gc
import importlib
import itertools
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from emphase import lexicon, pipeline, sexpr
from emphase.cli import cmd_forms
from emphase.discourse import EmphasisQ, parse_script, run_script
from emphase.emphasis import Case, DirectCase, Oblique, pattern_text
from emphase.errors import (
    EmphaseError,
    FocusConflictError,
    InputError,
    MissingMorphologyError,
    MissingRuleError,
    OrderingConflictError,
    OverlappingRulesError,
    RuleGapError,
    SelectionError,
    UnverbalizedRoleError,
)
from emphase.pipeline import (
    DATA_FILES,
    Bundle,
    Config,
    Frame,
    check_bundle,
    form_for_entry,
    generate,
    load_binding,
    load_bundle,
    read_data,
)
from emphase.realize import inflect_np, np_spec_for, realize
from emphase.spl import serialize_spl

from conftest import PATTERNS, atlas_of, plan_list

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fields  # noqa: E402


def test_atlas_canonical_order_starts_with_dative_frame(atlas):
    first = atlas.forms[0]
    assert (first.emphasis, first.blocking) == PATTERNS["schicken-dative"]


def test_form_for_entry_matches_atlas(bundle, forms_by_pattern):
    for entry in bundle.verbs:
        built = form_for_entry(bundle, entry)
        assert built == forms_by_pattern[(entry.emphasis, entry.blocking)]


def test_each_frame_keeps_the_emphasis_q_it_realizes(bundle):
    kept = {}
    for lemma in ("schicken", "verlieren", "wegwerfen"):
        frames = bundle.frames(lemma)
        assert bundle.frames(lemma) is frames
        for frame in frames:
            assert isinstance(frame, Frame)
            name = next(n for n, p in PATTERNS.items()
                        if p == (frame.entry.emphasis, frame.entry.blocking))
            kept[name] = frame.recipient, frame.emphasis_q
    assert kept == {
        "schicken-dative": ("a1", EmphasisQ.EMPHATIC),
        "schicken-oblique": ("a1", EmphasisQ.NONEMPHATIC),
        "verlieren": (None, None),
        "wegwerfen": (None, None),
    }


def _form_keys_hold(bundle) -> bool:
    """Each atlas form and each frame's form holds the key its selection is
    looked up by: its emphasis and its blocked variables among the first
    variable of each role label; a frame's form shares the selection of its
    atlas form.  True if some frame blocks a variable the key leaves out."""
    first_of_label = {}
    for variable, role in bundle.case_frame.items():
        first_of_label.setdefault(role.label, variable)
    readable = frozenset(first_of_label.values())

    def key(form):
        return form.emphasis, form.blocking.blocked & readable

    atlas = atlas_of(bundle)
    assert all(form.selection_key == key(form) for form, _ in atlas.values())
    left_out = False
    for lemma in sorted({entry.lemma for entry in bundle.verbs}):
        for frame in bundle.frames(lemma):
            form = frame.form
            assert form.selection_key == key(form)
            assert bundle.selection(form) is atlas[form.emphasis, form.blocking][1]
            left_out |= not form.blocking.blocked <= readable
    return left_out


def test_each_frame_keeps_the_key_its_selection_is_looked_up_by(bundle, tmp_path):
    assert {entry.lemma for entry in bundle.verbs} == {"schicken", "verlieren", "wegwerfen"}
    _form_keys_hold(bundle)
    # a bench field repeats role labels, so a key can leave blocked variables
    # out; one entry per atlas form the shipped rules classify
    config = fields.config_for(fields.write_field(tmp_path, 4, 1))
    atlas = atlas_of(load_bundle(config))
    config.lexicon_path = tmp_path / "atlas.lex"
    config.lexicon_path.write_text("".join(
        f'(verb "v{i}" (field {form.field_name}) {pattern_text(*pattern)} '
        f'(event e{i}) (present-3sg "v{i}t"))\n'
        for i, (pattern, (form, outcome)) in enumerate(atlas.items())
        if not isinstance(outcome, RuleGapError)
    ), encoding="utf-8")
    assert _form_keys_hold(load_bundle(config))


def test_generate_builds_each_result_afresh(bundle, binding_send, binding_key):
    """Equal requests give equal results, each built anew: no result is kept."""
    for lemma, binding, options in [
        ("schicken", binding_send, {"emphasis_q": EmphasisQ.EMPHATIC}),
        ("verlieren", binding_key, {}),
    ]:
        first = generate(bundle, lemma, binding, **options)
        second = generate(bundle, lemma, binding, **options)
        assert first == second
        assert first is not second and first.plan is not second.plan


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


def test_generate_refuses_an_emphasis_q_with_a_script_state(bundle, binding_send,
                                                           script_path):
    states = [run_script(parse_script(read_data(script_path))),
              run_script(parse_script("(sentence (mentions glassworks))"))]
    for state in states:
        for q in EmphasisQ:
            with pytest.raises(InputError, match="not both"):
                generate(bundle, "schicken", binding_send, emphasis_q=q, script_state=state)


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


def _reference_realize(form, verb, binding, np_lexicon, morph_table, emphasis_q=None):
    """The sentence template read straight off ``form.realization.entries``,
    with ``realize``'s errors in its order."""
    if not verb.matches(form):
        raise InputError(f"verb {verb.lemma!r} does not lexicalize this form's pattern")

    def text(variable, case):
        referent = binding.referent(variable)
        if referent is None:
            raise InputError(f"binding has no referent for variable {variable}")
        return inflect_np(np_spec_for(referent.name, case, np_lexicon), morph_table)

    entries = form.realization.entries
    by_case = {case: [v for v, r in entries if r == DirectCase(case)] for case in Case}
    if len(by_case[Case.NOMINATIVE]) != 1:
        raise InputError("the template needs exactly one nominative participant")
    if by_case[Case.GENITIVE]:
        raise InputError("genitive participants are outside the template")
    middle = [(v, text(v, case)) for case in (Case.DATIVE, Case.ACCUSATIVE)
              for v in by_case[case]]
    middle += [(v, f"{r.preposition} {text(v, r.governed)}")
               for v, r in entries if isinstance(r, Oblique)]
    if emphasis_q is EmphasisQ.EMPHATIC:
        if not by_case[Case.DATIVE]:
            raise OrderingConflictError(
                "emphatic recipient status requires a dative participant")
        if middle[-1][0] == by_case[Case.DATIVE][0]:
            raise OrderingConflictError(
                "the emphatic (dative) participant would end up in "
                "clause-final focus position")
    words = [text(by_case[Case.NOMINATIVE][0], Case.NOMINATIVE), verb.present_3sg]
    words += [t for _, t in middle] + [verb.prefix] * bool(verb.prefix)
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + "."


def _outcome(call):
    try:
        result = call()
    except EmphaseError as err:
        return type(err), str(err)
    return result.sentence, result.plan


def test_generate_equals_a_reference_built_from_the_realization_entries(
    binding_send, binding_key, script_path, monkeypatch
):
    """Every lemma, both shipped bindings, each emphasis-q and script
    state, focus on each participant role: the same sentence, plan text,
    error type and message as a pipeline whose sentence is read off the
    realization entries, with each noun phrase inflected anew instead of
    read from the bundle's table, and whose plan is written as a list."""
    scripts = [run_script(parse_script(read_data(script_path))),
               run_script(parse_script("(sentence (mentions glassworks))"))]
    actual_bundle = load_bundle(Config.default())
    reference_bundle = load_bundle(Config.default())

    def reference_fill(form, verb, binding, noun_phrases, emphasis_q=None):
        return _reference_realize(form, verb, binding, reference_bundle.np_lexicon,
                                  reference_bundle.morph_table, emphasis_q)
    lemmas = sorted({entry.lemma for entry in actual_bundle.verbs}) + ["geben"]
    roles = [None, "recipent"] + [rule.um_role for rule in actual_bundle.role_maps]
    options = [{}] + [{"emphasis_q": q} for q in EmphasisQ]
    options += [{"script_state": state} for state in scripts]
    compared = Counter()
    for lemma in lemmas:
        for binding in (binding_send, binding_key):
            for option in options:
                for role in roles:
                    request = (lemma, binding)
                    actual = _outcome(lambda: generate(
                        actual_bundle, *request, focus_role=role, **option))
                    with monkeypatch.context() as patched:
                        patched.setattr(pipeline, "fill_template", reference_fill)
                        expected = _outcome(lambda: generate(
                            reference_bundle, *request, focus_role=role, **option))
                    if isinstance(actual[1], tuple):  # a plan term
                        actual = actual[0], serialize_spl(actual[1])
                        expected = expected[0], sexpr.write(plan_list(expected[1]))
                    assert actual == expected, (lemma, option, role)
                    compared[actual[0] if isinstance(actual[0], type) else str] += 1
    assert set(compared) == {str, InputError, UnverbalizedRoleError, FocusConflictError}


def test_realize_equals_the_reference_on_every_atlas_form(
    bundle, atlas, binding_send, binding_key
):
    """Each form with its own verb and with the previous form's, both
    bindings, each emphasis-q; ``realize`` is asked twice, the second time
    with the form's case layout kept."""
    def probe(form):
        return lexicon.VerbEntry("probe", form.field_name, form.emphasis,
                                 form.blocking, "probe", "probt", "ab")

    compared = Counter()
    for index, form in enumerate(atlas.forms):
        for verb in (probe(form), probe(atlas.forms[index - 1])):
            for binding in (binding_send, binding_key):
                for q in (None, *EmphasisQ):
                    outcomes = []
                    for realizer in (realize, _reference_realize, realize):
                        try:
                            outcomes.append(realizer(form, verb, binding,
                                                     bundle.np_lexicon,
                                                     bundle.morph_table, q))
                        except EmphaseError as err:
                            outcomes.append((type(err), str(err)))
                    assert outcomes[0] == outcomes[1] == outcomes[2], (form, verb, q)
                    outcome = outcomes[0]
                    compared[outcome[0] if isinstance(outcome, tuple) else str] += 1
    assert set(compared) == {str, InputError, OrderingConflictError}


@pytest.mark.parametrize("source", ["emphasis_q", "script_state"])
def test_an_emphatic_recipient_in_focus_is_refused_alike_from_either_source(
    bundle, binding_send, script_path, source
):
    decision = {"emphasis_q": EmphasisQ.EMPHATIC,
                "script_state": run_script(parse_script(read_data(script_path)))}[source]
    with pytest.raises(FocusConflictError) as refused:
        generate(bundle, "schicken", binding_send, focus_role="recipient", **{source: decision})
    assert str(refused.value) == (
        "an emphatic participant cannot take the focus position, "
        "which is reserved for new, non-thematic information"
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
    # kept on the instance, so a later use runs no stage code
    loaded = Bundle(Config.default()).load_all()
    assert {"field", "rule_table", "case_frame", "oblique_table", "priority", "_process",
            "upper_model", "verbs", "np_lexicon", "morph_table"} <= vars(loaded).keys()


def test_a_piece_names_its_stage_without_the_cli(tmp_path):
    """The case frame fails ``frame``; a data file read while deriving it
    fails ``load``, the stage of the innermost piece."""
    rules, field = tmp_path / "gap.rules", tmp_path / "empty.field"
    rules.write_text("(init have 1 (locat have)) (init act 1 (agens act))")
    field.write_text("")
    for attribute, path, error, stage in [("rules_path", rules, MissingRuleError, "frame"),
                                          ("field_path", field, InputError, "load")]:
        config = Config.default()
        setattr(config, attribute, path)
        with pytest.raises(error) as raised:
            Bundle(config).case_frame
        assert raised.value.stage == stage


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


def _requests(binding_send, binding_key, script_path):
    """The shipped lemmas under each decision that generates."""
    state = run_script(parse_script(read_data(script_path)))
    return [("verlieren", binding_key, {}), ("wegwerfen", binding_key, {}),
            *(("schicken", binding_send, {"emphasis_q": q}) for q in EmphasisQ),
            ("schicken", binding_send, {"script_state": state})]


def test_a_bundle_inflects_each_noun_phrase_once(monkeypatch, binding_send, binding_key,
                                                 script_path):
    """Each (referent, case) is inflected on its first request and read from
    the bundle's table after that; a fresh bundle inflects each once again
    and gives the same sentences."""
    inflected, inflect = Counter(), inflect_np
    realize_module = importlib.import_module("emphase.realize")

    def counting(spec, table):
        inflected[spec] += 1
        return inflect(spec, table)

    monkeypatch.setattr(realize_module, "inflect_np", counting)
    requests = _requests(binding_send, binding_key, script_path) * 3
    answers = []
    for bundle in (load_bundle(Config.default()), load_bundle(Config.default())):
        inflected.clear()
        answers.append([generate(bundle, lemma, binding, **options).sentence
                        for lemma, binding, options in requests])
        assert set(bundle.noun_phrases) == {
            ("she", Case.NOMINATIVE), ("key", Case.ACCUSATIVE), ("he", Case.NOMINATIVE),
            ("him", Case.DATIVE), ("him", Case.ACCUSATIVE), ("invitation", Case.ACCUSATIVE),
        }
        assert inflected == Counter(
            {np_spec_for(*key, bundle.np_lexicon): 1 for key in bundle.noun_phrases})
    assert answers[0] == answers[1]


def test_a_missing_morphology_row_fails_every_generate_that_needs_it(
    tmp_path, binding_send, binding_key
):
    """The error is raised on each request that needs the row, before and
    after other lemmas generate, and is never kept: each answer is the one
    a fresh bundle gives."""
    config = Config.default()
    config.morph_path = tmp_path / "no-dative-pronoun.morph"
    config.morph_path.write_text(read_data(Config.default().morph_path).replace(
        "(pronoun-form masc dative ihm)\n", ""), encoding="utf-8")
    emphatic = ("schicken", binding_send, {"emphasis_q": EmphasisQ.EMPHATIC})
    requests = [emphatic, ("verlieren", binding_key, {}), emphatic,
                ("schicken", binding_send, {"emphasis_q": EmphasisQ.NONEMPHATIC}), emphatic]

    def answer(bundle, lemma, binding, options):
        try:
            return generate(bundle, lemma, binding, **options).sentence
        except EmphaseError as err:
            return type(err), str(err), err.stage

    bundle = load_bundle(config)
    answers = [answer(bundle, *request) for request in requests]
    assert answers == [answer(load_bundle(config), *request) for request in requests]
    refusal = (MissingMorphologyError, "no masc pronoun form for dative", None)
    assert answers[0::2] == [refusal] * 3
    assert answers[1::2] == ["Sie verliert den Schlüssel.",
                             "Er schickt eine Einladung an ihn."]
    assert ("him", Case.DATIVE) not in bundle.noun_phrases


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
    assert selected == Counter({pattern: 1 for pattern in atlas_of(bundle)})
    assert len(atlas_of(bundle)) == len(bundle.enumerate_forms().forms) == 15


# the shipped process rules with a second rule for directed-action
OVERLAP_RULES = (read_data(Config.default().process_path)
                 + "(process-rule directed-action (unblocked goal))\n")
# rules that read which goal is emphatic: on a bench field, forms that block
# the same variables but pass emphasis to different branches classify apart
GOAL_EMPHASIS_RULES = """(process-rule directed-action (emphatic goal))
(process-rule dispositive-material-action (not (emphatic goal)))
(role-map actor agens source) (role-map recipient goal) (role-map actee to-obj from-obj)
"""
# rules that name one label of the frame's five: the selection key still
# holds the first variable of every label
GOAL_ONLY_RULES = """(process-rule directed-action (unblocked goal))
(process-rule dispositive-material-action (blocked goal))
(role-map recipient goal)
"""


@pytest.mark.parametrize("field, process", [
    pytest.param(None, None, id="shipped"),
    pytest.param(None, OVERLAP_RULES, id="overlap"),
    pytest.param((1, 4), GOAL_EMPHASIS_RULES, id="goal-emphasis"),
    pytest.param(None, GOAL_ONLY_RULES, id="goal-only"),
    pytest.param((1, 4), GOAL_ONLY_RULES, id="goal-only-seed1-k4"),
    *(pytest.param((seed, k), None, id=f"seed{seed}-k{k}")
      for seed, k in itertools.product((1, 2, 3), (4, 5, 6, 7))),
])
def test_classifying_per_key_gives_each_form_its_own_outcome(tmp_path, field, process):
    """Each atlas outcome, classified once per selection key, is what
    classifying its own form gives: the selection, or the error type and
    text.  ``field`` is the (seed, k) of a bench field, ``process`` the
    text of the process rules; ``None`` keeps the shipped file."""
    config = Config.default()
    if field is not None:
        spec = fields.write_field(tmp_path, field[1], field[0])
        config.field_path, config.lexicon_path = spec.field_path, spec.lexicon_path
    if process is not None:
        config.process_path = tmp_path / "test.process"
        config.process_path.write_text(process, encoding="utf-8")
    bundle = load_bundle(config)
    for form, outcome in atlas_of(bundle).values():
        try:
            expected = lexicon.select_process_type(
                form, bundle.process_rules, bundle.role_maps, bundle.upper_model
            )
        except SelectionError as err:
            assert (type(outcome), str(outcome)) == (type(err), str(err))
        else:
            assert outcome == expected
    if process is OVERLAP_RULES:
        assert any(isinstance(o, OverlappingRulesError) for _, o in atlas_of(bundle).values())


def test_a_bundle_with_rule_gaps_in_its_atlas_is_freed_without_the_collector():
    # a stored error that kept its traceback would hold the bundle in a cycle
    bundle = load_bundle(Config.default())
    assert any(isinstance(outcome, RuleGapError) for _, outcome in atlas_of(bundle).values())
    freed = weakref.ref(bundle)
    gc.disable()
    try:
        del bundle
        assert freed() is None
    finally:
        gc.enable()


def test_selection_returns_each_form_a_new_error_that_generate_raises(tmp_path):
    """``Bundle.selection`` returns a selection error instead of raising it:
    a new one for each form, without a traceback, naming that form's
    pattern.  ``generate`` raises the one returned for its chosen frame."""
    overlap = Config.default()
    overlap.process_path = tmp_path / "overlap.process"
    overlap.process_path.write_text(OVERLAP_RULES, encoding="utf-8")
    bench = fields.config_for(fields.write_field(tmp_path / "bench", 4, 1))
    for config, binding_text in [
        (overlap, read_data(Config.default().field_path.parent.parent
                            / "bindings" / "he-him-invitation.binding")),
        (bench, None),
    ]:
        bundle = load_bundle(config)
        errors: dict[tuple, list] = {}  # by selection key: (form, error) in canonical order
        for form in bundle.enumerate_forms().forms:
            outcome = bundle.selection(form)
            if isinstance(outcome, SelectionError):
                assert outcome.__traceback__ is None
                assert str(outcome).endswith(" " + pattern_text(form.emphasis, form.blocking))
                errors.setdefault(form.selection_key, []).append((form, outcome))
        outcomes = [outcome for pairs in errors.values() for _, outcome in pairs]
        assert outcomes and len({id(outcome) for outcome in outcomes}) == len(outcomes)
        if config is bench:
            assert any(len(pairs) > 1 for pairs in errors.values())
            variables = bundle.field.scheme.variables
            binding_text = "(binding {})".format(
                " ".join(f"(ref ?{v} r{i} person)" for i, v in enumerate(variables)))

        # the one entry of the lexicon: the last form of the longest key
        form, _ = max(errors.values(), key=len)[-1]
        config.lexicon_path = tmp_path / "one.lex"
        config.lexicon_path.write_text(
            f'(verb "v" (field {form.field_name}) {pattern_text(form.emphasis, form.blocking)} '
            '(event e) (present-3sg "vt"))', encoding="utf-8")
        bundle = load_bundle(config)
        with pytest.raises(SelectionError) as raised:
            generate(bundle, "v", load_binding(bundle, binding_text))
        (frame,) = bundle.frames("v")
        assert (frame.form.emphasis, frame.form.blocking) == (form.emphasis, form.blocking)
        expected = bundle.selection(frame.form)
        assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))


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


def test_config_takes_exactly_the_nine_data_file_keywords():
    paths = vars(Config.default())
    assert list(paths) == [f.attribute for f in DATA_FILES] and len(paths) == 9
    assert vars(Config(**paths)) == paths
    missing = {name: path for name, path in paths.items() if name != "np_path"}
    for wrong in (missing, {**paths, "font_path": paths["np_path"]}, {}):
        with pytest.raises(TypeError):
            Config(**wrong)
    with pytest.raises(TypeError):
        Config(*paths.values())


def test_default_config_paths_readable():
    config = Config.default()
    bundle = load_bundle(config)
    assert bundle.load_all() is bundle
