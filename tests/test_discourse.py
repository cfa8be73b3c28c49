"""Discourse-state tracking and the recipient emphasis decision."""

import pytest

from emphase.discourse import (
    EMPTY_STATE,
    EmphasisQ,
    TextualStatus,
    decide_emphasis_q,
    parse_script,
    run_script,
    status_of,
    update_discourse,
)
from emphase.errors import HyperthemeError, ParseError
from emphase.pipeline import read_data


def test_update_unions_mentions_and_counts():
    state = update_discourse(EMPTY_STATE, ["behrens"], hypertheme_decl="behrens")
    assert state.mentioned == {"behrens"}
    assert state.hypertheme == "behrens"
    assert state.sentence_index == 1
    state = update_discourse(state, ["behrens", "flasks"])
    assert state.mentioned == {"behrens", "flasks"}
    assert state.sentence_index == 2


def test_remention_changes_only_the_index():
    state = update_discourse(EMPTY_STATE, ["behrens"])
    again = update_discourse(state, ["behrens"])
    assert again.mentioned == state.mentioned
    assert again.hypertheme == state.hypertheme
    assert again.sentence_index == state.sentence_index + 1


def test_hypertheme_redeclaration_same_ok_different_error():
    state = update_discourse(EMPTY_STATE, ["behrens"], hypertheme_decl="behrens")
    update_discourse(state, [], hypertheme_decl="behrens")  # no-op
    with pytest.raises(HyperthemeError):
        update_discourse(state, [], hypertheme_decl="duke")


def test_states_are_values():
    state = update_discourse(EMPTY_STATE, ["behrens"])
    assert EMPTY_STATE.mentioned == frozenset()
    assert state is not EMPTY_STATE


def test_declared_hypertheme_counts_as_mentioned():
    state = update_discourse(EMPTY_STATE, [], hypertheme_decl="behrens")
    assert "behrens" in state.mentioned
    assert status_of(state, "behrens").given


def test_status_given_hypertheme_after_context():
    state = update_discourse(EMPTY_STATE, ["behrens"], hypertheme_decl="behrens")
    state = update_discourse(state, ["behrens", "flasks"])
    status = status_of(state, "behrens")
    assert status.given and status.is_hypertheme
    assert status.givenness == "given"


def test_status_first_mention_is_new():
    state = update_discourse(EMPTY_STATE, ["behrens"], hypertheme_decl="behrens")
    status = status_of(state, "invitation")
    assert not status.given and not status.is_hypertheme
    assert status.givenness == "new"


def test_status_on_empty_state():
    assert status_of(EMPTY_STATE, "anything").givenness == "new"


def test_given_hypertheme_decides_emphatic():
    status = TextualStatus(given=True, is_hypertheme=True)
    assert decide_emphasis_q(status) is EmphasisQ.EMPHATIC


def test_new_referent_decides_nonemphatic():
    status = TextualStatus(given=False, is_hypertheme=False)
    assert decide_emphasis_q(status) is EmphasisQ.NONEMPHATIC


def test_given_without_hypertheme_decides_nonemphatic():
    status = TextualStatus(given=True, is_hypertheme=False)
    assert decide_emphasis_q(status) is EmphasisQ.NONEMPHATIC


# ---------------------------------------------------------------------------
# Scripts


def test_shipped_script_yields_hypertheme(script_path):
    updates = parse_script(read_data(script_path))
    assert len(updates) == 2
    state = run_script(updates)
    assert state.hypertheme == "him"
    assert "him" in state.mentioned
    assert state.sentence_index == 2
    assert decide_emphasis_q(status_of(state, "him")) is EmphasisQ.EMPHATIC


def test_script_syntax_checked():
    with pytest.raises(ParseError):
        parse_script("(sentence (mention him))")
    with pytest.raises(ParseError):
        parse_script("(utterance)")
