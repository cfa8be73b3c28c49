"""Plan-term construction and canonical serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from emphase import sexpr
from emphase.discourse import EmphasisQ
from emphase.errors import ParseError, UnverbalizedRoleError
from emphase.lexicon import select_process_type
from emphase.sexpr import QuotedString
from emphase.spl import SplTerm, build_spl, parse_spl, serialize_spl

from bruteforce import random_spl_term
from conftest import plan_list, verb_entry

SEND_DATIVE_PLAN = """
(send / directed-action
  :actor (he / person)
  :recipient
    (him / person
      :emphasis-q emphatic)
  :actee (invitation / object))
"""

SEND_OBLIQUE_PLAN = """
(send / directed-action
  :actor (he / person)
  :recipient
    (him / person
      :emphasis-q nonemphatic)
  :actee (invitation / object))
"""


def tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _plan(bundle, golden_forms, pattern_name, lemma, binding, emphasis_q):
    form = golden_forms[pattern_name]
    selection = select_process_type(
        form, bundle.process_rules, bundle.role_maps, bundle.upper_model
    )
    verb = verb_entry(bundle, lemma, pattern_name)
    return build_spl(selection, verb, binding, emphasis_q)


def test_send_dative_plan_tokens(bundle, golden_forms, binding_send):
    term = _plan(
        bundle, golden_forms, "schicken-dative", "schicken", binding_send,
        EmphasisQ.EMPHATIC,
    )
    assert tokens(serialize_spl(term)) == tokens(SEND_DATIVE_PLAN)


def test_send_oblique_plan_tokens(bundle, golden_forms, binding_send):
    term = _plan(
        bundle, golden_forms, "schicken-oblique", "schicken", binding_send,
        EmphasisQ.NONEMPHATIC,
    )
    assert tokens(serialize_spl(term)) == tokens(SEND_OBLIQUE_PLAN)


def test_plan_without_annotation_has_no_emphasis_q(bundle, golden_forms, binding_send):
    term = _plan(
        bundle, golden_forms, "schicken-dative", "schicken", binding_send, None
    )
    recipient = term.slot(":recipient")
    assert isinstance(recipient, SplTerm)
    assert recipient.slot(":emphasis-q") is None


def test_emphasis_q_rides_only_on_the_recipient(bundle, golden_forms, binding_send):
    term = _plan(
        bundle, golden_forms, "schicken-dative", "schicken", binding_send,
        EmphasisQ.EMPHATIC,
    )
    for keyword, filler in term.slots:
        value = filler.slot(":emphasis-q")
        if keyword == ":recipient":
            assert value == "emphatic"
        else:
            assert value is None


def test_recipient_annotation_on_goal_blocked_form_fails(
    bundle, golden_forms, binding_key
):
    form = golden_forms["verlieren"]
    selection = select_process_type(
        form, bundle.process_rules, bundle.role_maps, bundle.upper_model
    )
    verb = verb_entry(bundle, "verlieren")
    with pytest.raises(UnverbalizedRoleError):
        build_spl(selection, verb, binding_key, EmphasisQ.EMPHATIC)


def test_lose_plan_actor_and_actee(bundle, golden_forms, binding_key):
    form = golden_forms["verlieren"]
    selection = select_process_type(
        form, bundle.process_rules, bundle.role_maps, bundle.upper_model
    )
    verb = verb_entry(bundle, "verlieren")
    term = build_spl(selection, verb, binding_key)
    assert serialize_spl(term) == (
        "(lose / dispositive-material-action :actor (she / person) "
        ":actee (key / object))"
    )


def test_slotless_term_serialization():
    assert serialize_spl(SplTerm("e", "action")) == "(e / action)"


@pytest.mark.parametrize("term", [
    SplTerm("e", "action", (("actor", "x"),)),
    SplTerm("e", "action", ((":k", SplTerm("x", "o", (("actor", "y"),))),)),
], ids=["top", "nested"])
def test_serialize_refuses_a_keyword_without_its_colon(term):
    """A term is built unchecked; its keywords are checked where it is written."""
    with pytest.raises(ValueError, match="slot keyword must start with ':'"):
        serialize_spl(term)


@pytest.mark.parametrize("text, message", [
    ("(send / action :actor)", "plan slots come in :keyword filler pairs"),
    ("(send / action actor (he / person))", "expected a :keyword, got actor"),
])
def test_parse_refuses_a_slot_without_its_filler_or_its_colon(text, message):
    with pytest.raises(ParseError) as refused:
        parse_spl(text)
    assert str(refused.value) == message


def test_parse_inverts_serialize_on_goldens():
    term = parse_spl(SEND_DATIVE_PLAN)
    assert parse_spl(serialize_spl(term)) == term
    assert term.head == "send"
    recipient = term.slot(":recipient")
    assert recipient.um_type == "person"
    assert recipient.slot(":emphasis-q") == "emphatic"


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_terms(seed):
    term = random_spl_term(random.Random(seed))
    assert parse_spl(serialize_spl(term)) == term


# bare symbols of a plan term, from characters a symbol may hold; a word
# of digits alone would read back as an integer
_SYMBOLS = st.text("ab-?/:.é9*", min_size=1, max_size=6).filter(sexpr._symbol_ok)
_PLAN_TERMS = st.recursive(
    st.tuples(_SYMBOLS, _SYMBOLS).map(lambda parts: SplTerm(*parts)),
    lambda inner: st.tuples(
        _SYMBOLS,
        _SYMBOLS,
        st.lists(st.tuples(_SYMBOLS.map(lambda w: ":" + w), inner | _SYMBOLS),
                 max_size=4).map(tuple),
    ).map(lambda parts: SplTerm(*parts)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_PLAN_TERMS)
def test_serialize_writes_the_plan_as_a_list_and_parse_inverts_it(term):
    text = serialize_spl(term)
    assert text == sexpr.write(plan_list(term))
    assert serialize_spl(term) == text
    assert parse_spl(text) == term


def _keywords(term: SplTerm) -> list[str]:
    return [word for keyword, filler in term.slots
            for word in [keyword, *(_keywords(filler) if isinstance(filler, SplTerm) else ())]]


# keywords with a colon put before them or not, so that some lack it
_UNCHECKED_TERMS = st.recursive(
    st.tuples(_SYMBOLS, _SYMBOLS).map(lambda parts: SplTerm(*parts)),
    lambda inner: st.tuples(
        _SYMBOLS,
        _SYMBOLS,
        st.lists(st.tuples(_SYMBOLS | _SYMBOLS.map(lambda w: ":" + w), inner | _SYMBOLS),
                 max_size=4).map(tuple),
    ).map(lambda parts: SplTerm(*parts)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_UNCHECKED_TERMS)
def test_serialize_writes_only_what_parse_reads(term):
    """A nested plan term round-trips when every keyword has its colon;
    otherwise writing it raises, so no text parse_spl refuses is written."""
    if all(keyword.startswith(":") for keyword in _keywords(term)):
        assert parse_spl(serialize_spl(term)) == term
    else:
        with pytest.raises(ValueError, match="slot keyword must start with ':'"):
            serialize_spl(term)


@pytest.mark.parametrize("word", ["a b", "x(", 'q"', "\u00a0", "12", "-3", ""])
def test_unwritable_atoms_refused_every_time(word):
    """Head, type, keyword and filler, at the top and one level down,
    each written three times."""
    def nested(term):
        return SplTerm("e", "action", ((":k", term),))

    keyword = ":" + word if not sexpr._symbol_ok(":" + word) else ":a b"
    terms = []
    for outer in (lambda term: term, nested):
        terms += [
            outer(SplTerm(word, "action")),
            outer(SplTerm("e", word)),
            outer(SplTerm("e", "action", ((keyword, "x"),))),
            outer(SplTerm("e", "action", ((":k", word),))),
        ]
    for term in terms:
        for _ in range(3):
            with pytest.raises(ValueError, match="not writable as a bare symbol"):
                serialize_spl(term)


def test_quoted_string_or_integer_atom_refused():
    """An atom that is not a bare symbol, in any position: ``sexpr.write``
    would write it, but ``parse_spl`` refuses that text, so ``serialize_spl``
    raises instead."""
    for atom in (QuotedString("an"), QuotedString('a "b" \\ c'), 3, -1):
        for term in (
            SplTerm("e", "action", ((":p", atom),)),
            SplTerm("e", "action", ((":k", SplTerm("x", "o", ((":q", atom),))),)),
            SplTerm(atom, "action"),
            SplTerm("e", atom),
        ):
            with pytest.raises(ValueError, match="not writable as a bare symbol"):
                serialize_spl(term)
            with pytest.raises(ParseError):
                parse_spl(sexpr.write(plan_list(term)))
