"""Emphasis enumeration, blocking checks, and case assignment."""

import random
import re

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
    assign_cases,
    check_blocking,
    check_emphasis,
    direct_cases,
    emphatic_variables,
    enumerate_emphasis,
    enumerate_semantic_forms,
)
from emphase.errors import (
    CaseAssignmentError,
    MissingObliqueError,
    NoNominativeError,
    SchemeError,
)
from emphase.pipeline import Config, load_bundle
from emphase.scheme import parse_field

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


# ---------------------------------------------------------------------------
# Blocking


def test_blocking_ok_for_lose_pattern(field):
    emphasis, blocking = PATTERNS["verlieren"]
    assert check_blocking(field.scheme, emphasis, blocking) == []


def test_blocking_violation_at_act(field):
    emphasis = EmphasisAssignment(ACT | CHAIN_LOSE)
    blocking = BlockingSet(frozenset({"a", "a1", "a2"}))
    assert check_blocking(field.scheme, emphasis, blocking) == [(0,)]


def test_empty_blocking_always_ok(field):
    for assignment in enumerate_emphasis(field):
        assert check_blocking(field.scheme, assignment, BlockingSet(frozenset())) == []


def test_fully_blocked_chain_reported(field):
    emphasis, _ = PATTERNS["verlieren"]
    blocking = BlockingSet(frozenset({"a3", "a4"}))
    assert check_blocking(field.scheme, emphasis, blocking) == [(1, 1, 0, 0)]


def test_check_blocking_reports_in_path_order(field):
    emphasis = EmphasisAssignment(ACT | CHAIN_LOSE)
    blocking = BlockingSet(frozenset(field.scheme.variables))
    assert check_blocking(field.scheme, emphasis, blocking) == [(0,), (1, 1, 0, 0)]


def test_check_blocking_rejects_path_outside_scheme(field):
    emphasis = EmphasisAssignment(ACT | frozenset({(1, 7)}))
    with pytest.raises(SchemeError, match=re.escape("path [1, 7] out of range at index 1")):
        check_blocking(field.scheme, emphasis, BlockingSet(frozenset()))


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


def _assign(bundle, pattern_name):
    emphasis, blocking = PATTERNS[pattern_name]
    emphatic = emphatic_variables(bundle.field.scheme, emphasis)
    return assign_cases(
        bundle.case_frame, emphatic, blocking, bundle.oblique_table, bundle.priority
    )


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
    emphatic = emphatic_variables(bundle.field.scheme, emphasis)
    with pytest.raises(NoNominativeError):
        assign_cases(
            bundle.case_frame, emphatic, blocking, bundle.oblique_table, bundle.priority
        )


def test_missing_oblique_entry(bundle):
    # agens verbalized without emphasis: no preposition is attested
    emphasis = EmphasisAssignment(CHAIN_LOSE)
    blocking = BlockingSet(frozenset({"a1", "a2"}))
    emphatic = emphatic_variables(bundle.field.scheme, emphasis)
    with pytest.raises(MissingObliqueError, match="agens"):
        assign_cases(
            bundle.case_frame, emphatic, blocking, bundle.oblique_table, bundle.priority
        )


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

    def counting(scheme, emphasis, blocking):
        calls.append((emphasis, blocking))
        return original(scheme, emphasis, blocking)

    monkeypatch.setattr(emphasis_module, "check_blocking", counting)
    return calls


def test_check_blocking_once_per_pair(bundle, monkeypatch):
    calls = _counting_check_blocking(monkeypatch)
    fd = bundle.field
    enumeration = enumerate_semantic_forms(
        fd, bundle.case_frame, bundle.oblique_table, bundle.priority
    )
    pairs = len(enumerate_emphasis(fd)) * 2 ** len(fd.scheme.variables)
    assert len(calls) == len(set(calls)) == pairs
    assert (
        len(enumeration.forms) + enumeration.rejected_blocking
        + enumeration.rejected_assignment
        == pairs
    )


@pytest.mark.parametrize("seed", range(25))
def test_every_pair_accounted_for_on_random_fields(seed, monkeypatch):
    rng = random.Random(seed)
    scheme = random_scheme(rng)
    fd = random_field(rng, scheme)
    from emphase.roles import derive_case_frame

    frame = derive_case_frame(scheme, random_table(rng, scheme))
    calls = _counting_check_blocking(monkeypatch)
    enumeration = enumerate_semantic_forms(
        fd, frame, random_oblique(rng, frame), random_priority(rng)
    )
    pairs = len(enumerate_emphasis(fd)) * 2 ** len(scheme.variables)
    assert len(calls) == pairs
    assert (
        len(enumeration.forms) + enumeration.rejected_blocking
        + enumeration.rejected_assignment
        == pairs
    )


def test_blocking_everything_kills_every_form(bundle, atlas):
    all_blocked = frozenset(bundle.field.scheme.variables)
    assert not [f for f in atlas.forms if f.blocking.blocked == all_blocked]


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
                assert form.is_emphatic(variable) and form.is_verbalized(variable)
            elif isinstance(r, Oblique):
                assert not form.is_emphatic(variable)
                assert form.is_verbalized(variable)
            else:
                assert form.is_blocked(variable)
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
