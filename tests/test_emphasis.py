"""Emphasis enumeration, blocking checks, and case assignment."""

import itertools
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import emphase.emphasis as emphasis_module
from emphase.emphasis import (
    BLOCKED,
    BlockingSet,
    Case,
    DirectCase,
    EmphasisAssignment,
    Oblique,
    check_blocking,
    check_emphasis,
    direct_cases,
    emphasis_table,
    enumerate_emphasis,
    enumerate_semantic_forms,
    pattern_text,
    semantic_form,
)
from emphase.errors import (
    BlockedOutError,
    CaseAssignmentError,
    MissingObliqueError,
    NoNominativeError,
    SchemeError,
)
from emphase.pipeline import Config, load_bundle
from emphase.roles import derive_case_frame
from emphase.scheme import FieldDefinition, Proposition, Scheme, Variable, parse_field
from emphase.sexpr import write

from bruteforce import (
    emphasis_oracle,
    form_key,
    forms_oracle,
    random_field,
    random_oblique,
    random_priority,
    random_scheme,
    random_table,
)
from conftest import ACT, CHAIN_GET, CHAIN_LOSE, PATTERNS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fields  # noqa: E402


def test_exactly_four_assignments(field):
    assignments = enumerate_emphasis(field)
    assert [a.emphatic for a in assignments] == [
        ACT | CHAIN_GET,
        ACT | CHAIN_LOSE,
        CHAIN_GET,
        CHAIN_LOSE,
    ]


def test_assignments_equal_powerset_oracle(field):
    engine = {a.emphatic for a in enumerate_emphasis(field)}
    assert engine == emphasis_oracle(field)


def test_single_proposition_scheme_forced():
    fd = parse_field("(field f (scheme (have ?x ?y)) (emphasis-start ()))")
    assignments = enumerate_emphasis(fd)
    assert [a.emphatic for a in assignments] == [frozenset({()})]


def test_enumerated_assignments_pass_their_own_check(field):
    for assignment in enumerate_emphasis(field):
        assert check_emphasis(field, assignment) == []


def test_check_emphasis_rejects_chainless_sets(field):
    # start present, but the et node passes emphasis to both arguments
    too_wide = EmphasisAssignment(CHAIN_GET | CHAIN_LOSE)
    assert check_emphasis(field, too_wide)
    # emphatic node without emphatic parent
    orphan = EmphasisAssignment(frozenset({(1,), (1, 1, 0)}))
    assert any("parent" in p for p in check_emphasis(field, orphan))
    # start missing entirely
    no_start = EmphasisAssignment(frozenset({(0,)}))
    assert any("start" in p for p in check_emphasis(field, no_start))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumeration_equals_oracle_on_random_fields(seed):
    fd = random_field(random.Random(seed))
    engine = {a.emphatic for a in enumerate_emphasis(fd)}
    assert engine == emphasis_oracle(fd)


def test_optional_branch_overlapping_start_subtree():
    # a branch root inside the start's own subtree must not smuggle in
    # sets where a proposition passes emphasis to two arguments
    text = """(field odd (scheme (p (q (have ?x) (have ?y)) (have ?z)))
                 (emphasis-start ()) (optional-branch (0)))"""
    fd = parse_field(text)
    engine = {a.emphatic for a in enumerate_emphasis(fd)}
    assert engine == emphasis_oracle(fd)
    assert engine == {
        frozenset({(), (1,)}),
        frozenset({(), (0,), (0, 0)}),
        frozenset({(), (0,), (0, 1)}),
    }


@pytest.mark.parametrize("start, branches", [((2,), ()), ((), ((0, 1),))])
def test_emphasis_from_a_path_outside_the_scheme_is_refused(start, branches):
    # parse_field refuses these paths, so the field is built by hand
    scheme = Scheme(Proposition("p", (Proposition("have", (Variable("x"),)),
                                      Proposition("have", (Variable("y"),)))))
    field = FieldDefinition("hand", scheme, start, optional_branches=branches)
    with pytest.raises(SchemeError, match="out of range"):
        enumerate_emphasis(field)


# ---------------------------------------------------------------------------
# Blocking


def blocking_offenders(scheme, emphasis, blocking):
    """``check_blocking`` for a ``BlockingSet``, as ``semantic_form`` calls it."""
    table, _ = emphasis_table(scheme, emphasis)
    return check_blocking(table, scheme.mask_of(blocking.blocked))


def test_blocking_ok_for_lose_pattern(field):
    emphasis, blocking = PATTERNS["verlieren"]
    assert blocking_offenders(field.scheme, emphasis, blocking) == []


def test_blocking_violation_at_act(field):
    emphasis = EmphasisAssignment(ACT | CHAIN_LOSE)
    blocking = BlockingSet(frozenset({"a", "a1", "a2"}))
    assert blocking_offenders(field.scheme, emphasis, blocking) == [(0,)]


def test_empty_blocking_always_ok(field):
    for assignment in enumerate_emphasis(field):
        assert blocking_offenders(field.scheme, assignment, BlockingSet(frozenset())) == []


def test_fully_blocked_chain_reported(field):
    emphasis, _ = PATTERNS["verlieren"]
    blocking = BlockingSet(frozenset({"a3", "a4"}))
    assert blocking_offenders(field.scheme, emphasis, blocking) == [(1, 1, 0, 0)]


def test_check_blocking_reports_in_path_order(field):
    emphasis = EmphasisAssignment(ACT | CHAIN_LOSE)
    blocking = BlockingSet(frozenset(field.scheme.variables))
    assert blocking_offenders(field.scheme, emphasis, blocking) == [(0,), (1, 1, 0, 0)]


def test_check_blocking_rejects_path_outside_scheme(field):
    emphasis = EmphasisAssignment(ACT | frozenset({(1, 7)}))
    with pytest.raises(SchemeError, match=re.escape("path [1, 7] out of range at index 1")):
        emphasis_table(field.scheme, emphasis)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_emphatic_variables_and_blocking_match_their_definitions(seed):
    rng = random.Random(seed)
    fd = random_field(rng, random_scheme(rng))
    scheme = fd.scheme
    for emphasis in enumerate_emphasis(fd):
        assert emphasis_table(scheme, emphasis)[1] == frozenset(
            v for v in scheme.variables if scheme.variable_site(v)[0] in emphasis.emphatic
        )
        blocked = frozenset(v for v in scheme.variables if rng.random() < 0.5)
        offending = sorted(
            path
            for path in emphasis.emphatic
            if scheme.node_at(path).is_basic
            and {v.name for v in scheme.node_at(path).variables} <= blocked
        )
        assert blocking_offenders(scheme, emphasis, BlockingSet(blocked)) == offending


@pytest.mark.parametrize("seed", range(40))
def test_a_blocking_index_has_the_bits_of_its_blocked_variables(seed):
    # the one bit order, both ways: bit j stands for the j-th scheme variable
    scheme = random_scheme(random.Random(seed))
    variables = scheme.variables
    for mask in range(1 << len(variables)):
        names = scheme.names_of(mask)
        assert names == frozenset(v for j, v in enumerate(variables) if mask >> j & 1)
        assert scheme.mask_of(names) == mask
        assert scheme.mask_of(names | {"not-a-variable"}) == mask
    assert scheme.mask_of(variables) == (1 << len(variables)) - 1


def _random_atlas(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    fd = random_field(rng, scheme)
    frame = derive_case_frame(scheme, random_table(rng, scheme))
    return fd, frame, random_oblique(rng, frame), random_priority(rng)


@pytest.mark.parametrize("seed", range(40))
def test_check_blocking_is_the_same_whether_the_table_was_filled_first_or_not(seed):
    # nothing an enumeration leaves on a Scheme changes a later answer: two
    # enumerations over one Scheme are equal, and its emphasis tables answer
    # as a fresh Scheme's do
    fd, frame, oblique, priority = _random_atlas(seed)
    first = enumerate_semantic_forms(fd, frame, oblique, priority)
    second = enumerate_semantic_forms(fd, frame, oblique, priority)
    assert [form_key(f) for f in first.forms] == [form_key(f) for f in second.forms]
    assert first.rejected_blocking == second.rejected_blocking
    assert first.rejected_assignment == second.rejected_assignment
    fresh = Scheme(fd.scheme.root)
    rng = random.Random(seed)
    for emphasis in enumerate_emphasis(fd):
        table, emphatic = emphasis_table(fd.scheme, emphasis)
        assert (table, emphatic) == emphasis_table(fresh, emphasis)
        for _ in range(4):
            blocked = rng.getrandbits(len(fresh.variables))
            assert check_blocking(table, blocked) == check_blocking(
                emphasis_table(fresh, emphasis)[0], blocked
            )


@pytest.mark.parametrize("seed", range(40))
def test_the_verdict_table_answers_every_mask_as_the_definition_does(seed):
    # at most one verdict per subset of the emphatic variables, and for every
    # blocking the emphatic basic propositions whose variables it all blocks
    fd, *_ = _random_atlas(seed)
    scheme = fd.scheme
    for emphasis in enumerate_emphasis(fd):
        table, emphatic = emphasis_table(scheme, emphasis)
        _, verdicts = table
        assert len(verdicts) <= 2 ** len(emphatic)
        basics = sorted(path for path in emphasis.emphatic if scheme.node_at(path).is_basic)
        for mask in range(1 << len(scheme.variables)):
            blocked = scheme.names_of(mask)
            assert check_blocking(table, mask) == [
                path for path in basics
                if {v.name for v in scheme.node_at(path).variables} <= blocked
            ]


@pytest.mark.parametrize(
    "path, message",
    [
        ((2,), "path [2] out of range at index 0"),
        ((0, 0), "path [0, 0] out of range at index 1"),
        ((1, 1, 0, 0, 0), "path [1, 1, 0, 0, 0] out of range at index 4"),
        ((-1,), "path [-1] out of range at index 0"),
    ],
)
def test_node_at_out_of_range_message(field, path, message):
    with pytest.raises(SchemeError, match=re.escape(message) + "$"):
        field.scheme.node_at(path)


# ---------------------------------------------------------------------------
# Case assignment


def _semantic_form(bundle, emphasis, blocking):
    return semantic_form(bundle.field, bundle.case_frame, bundle.oblique_table,
                         bundle.priority, emphasis, blocking.blocked)


def _assign(bundle, pattern_name):
    return _semantic_form(bundle, *PATTERNS[pattern_name]).realization


def test_send_dative_pattern_cases(bundle):
    realization = _assign(bundle, "schicken-dative")
    assert realization.of("a") == DirectCase(Case.NOMINATIVE)
    assert realization.of("a1") == DirectCase(Case.DATIVE)
    assert realization.of("a2") == DirectCase(Case.ACCUSATIVE)
    assert realization.of("a3") == BLOCKED
    assert realization.of("a4") == BLOCKED


def test_lose_pattern_nominative_on_source(bundle):
    realization = _assign(bundle, "verlieren")
    assert realization.of("a3") == DirectCase(Case.NOMINATIVE)
    assert realization.of("a4") == DirectCase(Case.ACCUSATIVE)
    assert realization.of("a") == BLOCKED
    assert realization.of("a1") == BLOCKED
    assert realization.of("a2") == BLOCKED


def test_send_oblique_pattern_to_phrase(bundle):
    realization = _assign(bundle, "schicken-oblique")
    assert realization.of("a") == DirectCase(Case.NOMINATIVE)
    assert realization.of("a1") == Oblique("an", Case.ACCUSATIVE)
    assert realization.of("a4") == DirectCase(Case.ACCUSATIVE)
    assert realization.of("a2") == BLOCKED
    assert realization.of("a3") == BLOCKED


def test_no_nominative_candidate(bundle):
    # only to-obj is emphatic and unblocked: nothing can take nominative
    emphasis = EmphasisAssignment(CHAIN_GET)
    blocking = BlockingSet(frozenset({"a", "a1", "a3", "a4"}))
    with pytest.raises(NoNominativeError):
        _semantic_form(bundle, emphasis, blocking)


def test_missing_oblique_entry(bundle):
    # agens verbalized without emphasis: no preposition is attested
    emphasis = EmphasisAssignment(CHAIN_LOSE)
    blocking = BlockingSet(frozenset({"a1", "a2"}))
    with pytest.raises(MissingObliqueError, match="agens"):
        _semantic_form(bundle, emphasis, blocking)


def test_direct_cases_follow_the_priority_orders(bundle):
    # from-obj is in the accusative order only
    assigned = direct_cases(bundle.case_frame, ["a", "a4"], bundle.priority)
    assert assigned == {
        "a": DirectCase(Case.NOMINATIVE),
        "a4": DirectCase(Case.ACCUSATIVE),
    }
    with pytest.raises(NoNominativeError):
        direct_cases(bundle.case_frame, ["a2"], bundle.priority)
    with pytest.raises(CaseAssignmentError):
        direct_cases(bundle.case_frame, ["a", "a1", "a2", "a3", "a4"], bundle.priority)


def test_assignment_deterministic(bundle):
    assert _assign(bundle, "schicken-dative") == _assign(bundle, "schicken-dative")


# ---------------------------------------------------------------------------
# Form enumeration


def test_atlas_contains_the_four_golden_patterns(atlas):
    keys = {(form.emphasis, form.blocking) for form in atlas.forms}
    for pattern in PATTERNS.values():
        assert pattern in keys


def test_atlas_equals_brute_force(bundle, atlas):
    oracle_keys, oracle_rejected = forms_oracle(
        bundle.field, bundle.case_frame, bundle.oblique_table, bundle.priority
    )
    assert {form_key(f) for f in atlas.forms} == oracle_keys
    assert len(atlas.forms) == len(oracle_keys)
    assert atlas.rejected_assignment == oracle_rejected


def test_candidate_space_is_4_by_32(atlas):
    assert (
        len(atlas.forms) + atlas.rejected_blocking + atlas.rejected_assignment
        == 4 * 2**5
    )


def _counting_check_blocking(monkeypatch) -> list:
    calls = []
    original = emphasis_module.check_blocking

    def counting(table, blocked):
        calls.append((table, blocked))
        return original(table, blocked)

    monkeypatch.setattr(emphasis_module, "check_blocking", counting)
    return calls


def test_check_blocking_once_per_pair(bundle, monkeypatch):
    calls = _counting_check_blocking(monkeypatch)
    fd = bundle.field
    enumeration = enumerate_semantic_forms(
        fd, bundle.case_frame, bundle.oblique_table, bundle.priority
    )
    pairs = len(enumerate_emphasis(fd)) * 2 ** len(fd.scheme.variables)
    # calls keeps every table alive, so no two tables share an id
    assert len(calls) == len({(id(table), mask) for table, mask in calls}) == pairs
    assert (
        len(enumeration.forms) + enumeration.rejected_blocking
        + enumeration.rejected_assignment
        == pairs
    )


@pytest.mark.parametrize("seed", range(25))
def test_every_pair_accounted_for_on_random_fields(seed, monkeypatch):
    fd, frame, oblique, priority = _random_atlas(seed)
    calls = _counting_check_blocking(monkeypatch)
    enumeration = enumerate_semantic_forms(fd, frame, oblique, priority)
    pairs = len(enumerate_emphasis(fd)) * 2 ** len(fd.scheme.variables)
    assert len(calls) == pairs
    assert (
        len(enumeration.forms) + enumeration.rejected_blocking
        + enumeration.rejected_assignment
        == pairs
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_semantic_form_decides_each_pair_as_the_enumeration_does(seed):
    # the enumeration is semantic_form's bulk walk: the same forms in the
    # same order, and each rejected pair counted under its reason
    fd, frame, oblique, priority = _random_atlas(seed)
    scheme = fd.scheme
    forms, blocked_out, unassigned = [], 0, 0
    for emphasis in enumerate_emphasis(fd):
        for mask in range(1 << len(scheme.variables)):
            blocked = scheme.names_of(mask)
            try:
                forms.append(semantic_form(fd, frame, oblique, priority, emphasis, blocked))
            except BlockedOutError as err:
                blocked_out += 1
                assert err.paths == sorted(
                    path
                    for path in emphasis.emphatic
                    if scheme.node_at(path).is_basic
                    and {v.name for v in scheme.node_at(path).variables} <= blocked
                )
            except (CaseAssignmentError, MissingObliqueError):
                unassigned += 1
    enumeration = enumerate_semantic_forms(fd, frame, oblique, priority)
    assert forms == enumeration.forms
    assert blocked_out == enumeration.rejected_blocking
    assert unassigned == enumeration.rejected_assignment


def rejected_blocking_oracle(scheme, emphases) -> int:
    """Pairs, over all blocked sets, in which some emphatic basic
    proposition has every variable blocked."""
    rejected = 0
    for emphatic_paths in emphases:
        basics = [
            {v.name for v in scheme.node_at(path).variables}
            for path in emphatic_paths
            if scheme.node_at(path).is_basic
        ]
        for flags in itertools.product((False, True), repeat=len(scheme.variables)):
            blocked = {v for v, flag in zip(scheme.variables, flags) if flag}
            rejected += any(names <= blocked for names in basics)
    return rejected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rejected_blocking_counts_the_blocked_out_pairs_on_random_fields(seed):
    fd, frame, oblique, priority = _random_atlas(seed)
    enumeration = enumerate_semantic_forms(fd, frame, oblique, priority)
    assert enumeration.rejected_blocking == rejected_blocking_oracle(
        fd.scheme, emphasis_oracle(fd)
    )


@pytest.mark.parametrize("k", [4, 5, 6])
def test_rejected_blocking_counts_the_blocked_out_pairs_on_the_bench_fields(tmp_path, k):
    bundle = load_bundle(fields.config_for(fields.write_field(tmp_path, k, 1)))
    emphases = [a.emphatic for a in enumerate_emphasis(bundle.field)]
    assert bundle.enumerate_forms().rejected_blocking == rejected_blocking_oracle(
        bundle.field.scheme, emphases
    )


def test_blocking_everything_kills_every_form(bundle, atlas):
    all_blocked = frozenset(bundle.field.scheme.variables)
    assert not [f for f in atlas.forms if f.blocking.blocked == all_blocked]


def test_pattern_text_is_the_written_pattern_terms(bundle, atlas):
    patterns = [(f.emphasis, f.blocking) for f in atlas.forms]
    patterns += [(EmphasisAssignment(frozenset({()})), BlockingSet(frozenset())),
                 (EmphasisAssignment(frozenset()), BlockingSet(frozenset({"a"})))]
    for emphasis, blocking in patterns:
        terms = (["emphasis"] + [list(p) for p in sorted(emphasis.emphatic)],
                 ["blocked"] + sorted("?" + v for v in blocking.blocked))
        assert pattern_text(emphasis, blocking) == " ".join(map(write, terms))


def test_enumeration_is_deterministic():
    # two bundles: one bundle hands back its one cached enumeration
    first = [form_key(f) for f in load_bundle(Config.default()).enumerate_forms().forms]
    second = [form_key(f) for f in load_bundle(Config.default()).enumerate_forms().forms]
    assert first == second


def test_form_invariants_over_atlas(bundle, atlas):
    scheme = bundle.field.scheme
    for form in atlas.forms:
        realization = form.realization
        # exactly one nominative
        assert len(realization.variables_with(Case.NOMINATIVE)) == 1
        for variable, _role in form.case_frame:
            r = realization.of(variable)
            if isinstance(r, DirectCase):
                assert variable in form.emphatic_variables and variable not in form.blocking
            elif isinstance(r, Oblique):
                assert variable not in form.emphatic_variables
                assert variable not in form.blocking
            else:
                assert variable in form.blocking
        # every emphatic basic proposition keeps a direct-case argument
        for path in form.emphasis.emphatic:
            node = scheme.node_at(path)
            if node.is_basic:
                assert any(
                    isinstance(realization.of(v.name), DirectCase)
                    for v in node.variables
                )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_fields_atlas_equals_oracle(seed):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    fd = random_field(rng, scheme)
    table = random_table(rng, scheme)
    from emphase.roles import derive_case_frame

    frame = derive_case_frame(scheme, table)
    priority = random_priority(rng)
    oblique = random_oblique(rng, frame)
    enumeration = enumerate_semantic_forms(fd, frame, oblique, priority)
    oracle_keys, oracle_rejected = forms_oracle(fd, frame, oblique, priority)
    assert {form_key(f) for f in enumeration.forms} == oracle_keys
    assert enumeration.rejected_assignment == oracle_rejected
