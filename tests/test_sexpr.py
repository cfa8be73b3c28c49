"""Reader/writer tests for the shared term syntax."""

import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from emphase import sexpr
from emphase.errors import ParseError
from emphase.sexpr import QuotedString

from bruteforce import random_term


def test_reads_atoms_and_nesting():
    assert sexpr.read("hello") == "hello"
    assert sexpr.read("-42") == -42
    assert sexpr.read('"a b"') == "a b"
    assert isinstance(sexpr.read('"a b"'), QuotedString)
    assert sexpr.read("(a (b 1) ?x)") == ["a", ["b", 1], "?x"]


def test_nesting_depth_is_bounded():
    limit = sexpr.MAX_DEPTH
    nested: list = []
    for _ in range(limit - 1):
        nested = [nested]
    assert sexpr.read("(" * limit + ")" * limit) == nested
    with pytest.raises(ParseError, match="deeper than") as info:
        sexpr.read_all("x\n " + "(" * (limit + 1) + ")" * (limit + 1))
    assert (info.value.line, info.value.column) == (2, limit + 2)


def test_whitespace_and_comments_ignored():
    text = """
    ; leading comment
    (field  f ; trailing comment
       (scheme (have ?x)))
    """
    assert sexpr.read(text) == ["field", "f", ["scheme", ["have", "?x"]]]


def test_read_all_sequence():
    terms = sexpr.read_all("(a 1) (b 2) c")
    assert terms == [["a", 1], ["b", 2], "c"]


def test_comment_only_input_is_empty():
    assert sexpr.read_all("; nothing here\n ; still nothing") == []


def test_number_like_tokens():
    assert sexpr.read("(n -7 007 3x -)") == ["n", -7, 7, "3x", "-"]


def test_string_escapes_round_trip():
    original = QuotedString('say "hi" \\ done')
    assert sexpr.read(sexpr.write(original)) == original


def test_unbalanced_open_reports_position():
    with pytest.raises(ParseError) as exc:
        sexpr.read("(a (b)")
    assert exc.value.line == 1
    assert exc.value.column == 1


def test_unexpected_close_reports_position():
    with pytest.raises(ParseError) as exc:
        sexpr.read("\n  )")
    assert exc.value.line == 2
    assert exc.value.column == 3


def test_unterminated_string_reports_position():
    with pytest.raises(ParseError) as exc:
        sexpr.read('(a "oops)')
    assert exc.value.line == 1
    assert exc.value.column == 4


def test_trailing_material_rejected():
    with pytest.raises(ParseError):
        sexpr.read("(a) (b)")


def test_writer_canonical_spacing():
    term = ["field", "f", ["scheme", ["have", "?x", "?y"]], ["emphasis-start", []]]
    assert sexpr.write(term) == "(field f (scheme (have ?x ?y)) (emphasis-start ()))"


def test_writer_rejects_unwritable_symbols():
    # whitespace in the str.isspace sense (the separator \x1c too), any
    # delimiter, the empty word, and words that would read back as integers
    for word in ("has space", "a\x1cb", "a(b", "a)b", 'a"b', "a;b", "", "123", "-12"):
        with pytest.raises(ValueError):
            sexpr.write(word)


@pytest.mark.parametrize("word", ["-", "3x", "-x1", "?a1", ":emphasis-q", "Schlüssel"])
def test_writer_symbol_accept_set(word):
    assert sexpr.write(word) == word
    assert sexpr.read(word) == word


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_write_read_round_trip(seed):
    term = random_term(random.Random(seed))
    assert sexpr.read(sexpr.write(term)) == term


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_writer_deterministic(seed):
    term = random_term(random.Random(seed))
    first = sexpr.write(term)
    assert sexpr.write(sexpr.read(first)) == first


def test_integer_literals_are_ascii_digits_with_one_sign():
    assert sexpr.read("(-0 --5 ² 12a)") == [0, "--5", "²", "12a"]
    for word in ("--5", "²"):
        assert sexpr.read(sexpr.write(word)) == word


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="integer too long") as info:
        sexpr.read("(n " + "9" * 5000 + ")")
    assert (info.value.line, info.value.column) == (1, 4)


def test_every_whitespace_character_separates_atoms():
    assert sexpr.read_all("a\x0bb c\x1cd e f") == ["a", "b", "c", "d", "e", "f"]


# ---------------------------------------------------------------------------
# Term-shape accessors


def test_accessors_return_values():
    assert sexpr.symbol(sexpr.read("x"), "s") == "x"
    text = sexpr.string(sexpr.read('"an"'), "s")
    assert text == "an" and type(text) is str
    assert sexpr.integer(sexpr.read("-3"), "s") == -3
    assert sexpr.variable(sexpr.read("?a1"), "s") == "a1"
    assert sexpr.path(sexpr.read("(1 0)"), "s") == (1, 0)
    assert sexpr.path(sexpr.read("()"), "s") == ()
    assert sexpr.lookup(sexpr.read("neg"), "s", {"pos": 1, "neg": -1}) == -1
    assert sexpr.clause(sexpr.read("(h a (b))"), "s", (0, None)) == ("h", ["a", ["b"]])
    assert sexpr.clause(sexpr.read("(h a)"), "s", {"g": (0, 0), "h": (1, 2)}) == ("h", ["a"])


@pytest.mark.parametrize("accessor, text, message", [
    (lambda t: sexpr.symbol(t, "the name"), '"x"', 'the name must be a symbol, got "x"'),
    (lambda t: sexpr.symbol(t, "the name"), "(x)", "the name must be a symbol, got (x)"),
    (lambda t: sexpr.symbol(t, "the name"), "7", "the name must be a symbol, got 7"),
    (lambda t: sexpr.string(t, "the word"), "x", "the word must be a quoted string, got x"),
    (lambda t: sexpr.integer(t, "the index"), '"1"', 'the index must be an integer, got "1"'),
    (lambda t: sexpr.variable(t, "the slot"), "x", "the slot must be a ?variable, got x"),
    (lambda t: sexpr.variable(t, "the slot"), "?", "the slot must be a ?variable, got ?"),
    (lambda t: sexpr.variable(t, "the slot"), "?5", "the slot must be a ?variable, got ?5"),
    (lambda t: sexpr.path(t, "the path"), "(1 x)",
     "the path must be a list of child indices, got (1 x)"),
    (lambda t: sexpr.path(t, "the path"), "1", "the path must be a list of child indices, got 1"),
    (lambda t: sexpr.lookup(t, "the polarity", {"pos": 1, "neg": -1}), "(pos)",
     "the polarity must be pos|neg, got (pos)"),
    (lambda t: sexpr.clause(t, "an entry", (0, None)), "()",
     "an entry must be a parenthesized term with a symbol head, got ()"),
    (lambda t: sexpr.clause(t, "an entry", (0, None)), '("h" x)',
     'an entry must be a parenthesized term with a symbol head, got ("h" x)'),
    (lambda t: sexpr.clause(t, "an entry", {"a": (0, None), "b": (1, 1)}), "(c)",
     "an entry must be (a ...) or (b ...), got (c)"),
    (lambda t: sexpr.clause(t, "an entry", {"b": (1, 1)}), "(b)",
     "an entry must be (b ...) with 1 argument(s), got (b)"),
    (lambda t: sexpr.clause(t, "an entry", (1, 2)), "(b 1 2 3)",
     "an entry must be (b ...) with 1 to 2 argument(s), got (b 1 2 3)"),
    (lambda t: sexpr.clause(t, "an entry", (2, None)), "(b 1)",
     "an entry must be (b ...) with at least 2 argument(s), got (b 1)"),
    (lambda t: sexpr.symbol(t, "the name"), '("two\nlines")',
     'the name must be a symbol, got ("two lines")'),
])
def test_accessor_errors_name_the_slot_and_show_the_term(accessor, text, message):
    with pytest.raises(ParseError) as info:
        accessor(sexpr.read(text))
    assert str(info.value) == message


@pytest.mark.parametrize("parse, text, message", [
    ("scheme.parse_field", '(field f (scheme (have ?x "y")) (emphasis-start ()))',
     'an argument of have must be a ?variable, got "y"'),
    ("scheme.parse_field", "(field f (scheme (have ?x)) (emphasis-start (0 x)))",
     "emphasis-start must be a list of child indices, got (0 x)"),
    ("scheme.parse_binding", '(binding (ref ?a she "person"))',
     'a referent sort must be a symbol, got "person"'),
    ("roles.parse_rule_table", "(init have one (locat have))",
     "the argument position of (init ...) must be an integer, got one"),
    ("roles.parse_rule_table", "(modify bec maybe (locat have) (goal have))",
     "the polarity of (modify ...) must be pos|neg, got maybe"),
    ("emphasis.parse_oblique_table", "(oblique (goal have) an accusative)",
     "the preposition must be a quoted string, got an"),
    ("emphasis.parse_oblique_table", '(oblique (goal have) "an" akkusativ)',
     "the governed case must be nominative|genitive|dative|accusative, got akkusativ"),
    ("emphasis.parse_case_priority", '(nominative-order agens "goal")',
     'a role label of (nominative-order ...) must be a symbol, got "goal"'),
    ("lexicon.parse_process_rules", "(process-rule action (unblocked (agens)))",
     "the role label of (unblocked ...) must be a symbol, got (agens)"),
    ("lexicon.parse_upper_model", '(um-type "process")',
     'an upper-model type must be a symbol, got "process"'),
    ("realize.parse_np_lexicon", "(np key Schlüssel masc the)",
     "a noun definiteness must be def|indef, got the"),
    ("realize.parse_morph_table", '(article def masc nominative "der")',
     'an inflected form must be a symbol, got "der"'),
    ("realize.parse_morph_table", "(pronoun-form masc nominative er) (pronoun-form masc nominative es)",
     "duplicate morphology row: (pronoun-form masc nominative es)"),
    ("discourse.parse_script", '(sentence (hypertheme "him"))',
     'the hypertheme must be a symbol, got "him"'),
    ("spl.parse_spl", '(send / action :actor "he")',
     'the filler of :actor must be a symbol, got "he"'),
])
def test_parsers_reject_a_wrong_kind_in_a_slot(parse, text, message):
    module, name = parse.split(".")
    parser = getattr(importlib.import_module(f"emphase.{module}"), name)
    with pytest.raises(ParseError) as info:
        parser(text)
    assert str(info.value) == message


@pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                      "\x1e", "\x85", "\u2028", "\u2029"])
def test_string_refuses_a_line_boundary(boundary):
    assert sexpr.string(sexpr.read('""'), "s") == ""
    term = sexpr.read(f'"ver{boundary}lieren"')
    with pytest.raises(ParseError) as info:
        sexpr.string(term, "a verb lemma")
    assert str(info.value).startswith("a verb lemma must be a quoted string on one line, got ")
    assert len(str(info.value).splitlines()) == 1
