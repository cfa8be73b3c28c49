"""Reader/writer tests for the shared term syntax."""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emphase import lexicon, scheme, sexpr
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
        for _ in range(3):  # the writer keeps each symbol's verdict
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
    assert sexpr.read(sexpr.write(term)) == term  # again, with each symbol's verdict kept


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


def test_clauses_reads_each_head_once_in_clause_order():
    arities = {"a": (0, 0), "b": (1, 1), "c": (0, None)}
    found = sexpr.clauses(sexpr.read_all("(b 1) (a) (c 2 3)"), "an entry", arities)
    assert list(found.items()) == [("b", [1]), ("a", []), ("c", [2, 3])]
    with pytest.raises(ParseError) as info:
        sexpr.clauses(sexpr.read_all("(a) (b 1) (a)"), "an entry", arities)
    assert str(info.value) == "an entry repeats (a ...)"


LEXICON_FIELD = "(field f (scheme (have ?x ?y)) (emphasis-start ()))"


@pytest.mark.parametrize("parse, text, message", [
    ("scheme.parse_field", "(field f (scheme (have ?x)) (emphasis-start ()) (scheme (have ?y)))",
     "a field clause repeats (scheme ...)"),
    ("scheme.parse_field",
     "(field f (scheme (have ?x)) (emphasis-start ()) (optional-branch) (optional-branch))",
     "a field clause repeats (optional-branch ...)"),
    ("scheme.parse_field", "(field f (scheme (have ?x ?y)) (emphasis-start ()) "
     "(coref (= ?x ?y)) (coref (distinct ?x ?y)))", "a field clause repeats (coref ...)"),
    ("lexicon.parse_lexicon", '(verb "x" (event lose) (event win))',
     "a clause of verb 'x' repeats (event ...)"),
    ("emphasis.parse_case_priority", "(nominative-order agens) (nominative-order goal)",
     "a case-priority entry repeats (nominative-order ...)"),
    ("discourse.parse_script", "(sentence (hypertheme him) (hypertheme her))",
     "a sentence clause repeats (hypertheme ...)"),
])
def test_parsers_reject_a_repeated_clause(parse, text, message):
    module, name = parse.split(".")
    parser = getattr(importlib.import_module(f"emphase.{module}"), name)
    context = [scheme.parse_field(LEXICON_FIELD)] if name == "parse_lexicon" else []
    with pytest.raises(ParseError) as info:
        parser(text, *context)
    assert str(info.value) == message


def test_a_clause_value_is_read_before_a_missing_clause_is_named():
    field = scheme.parse_field(LEXICON_FIELD)
    with pytest.raises(ParseError) as info:
        lexicon.parse_lexicon('(verb "x" (event "lose"))', field)
    assert str(info.value) == "the (event ...) of verb 'x' must be a symbol, got \"lose\""


_SHIPPED = {path.relative_to(path.parents[1]).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted((Path(sexpr.__file__).parent / "data").rglob("*.*"))}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_lone_quote_is_reported_where_it_stands(data):
    """A ``"`` inserted into a line of a shipped data file that holds no
    other quote, before any comment there, is reported at its own line and
    column, though later lines hold quoted strings."""
    lines = _SHIPPED[data.draw(st.sampled_from(sorted(_SHIPPED)))].split("\n")
    index = data.draw(st.sampled_from([i for i, line in enumerate(lines) if '"' not in line]))
    line = lines[index]
    column = data.draw(st.integers(0, line.find(";") if ";" in line else len(line)))
    lines[index] = line[:column] + '"' + line[column:]
    with pytest.raises(ParseError) as info:
        sexpr.read_all("\n".join(lines))
    place = (index + 1, column + 1)
    assert (str(info.value), info.value.line, info.value.column) == (
        "{}:{}: unterminated string".format(*place), *place)


@pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                      "\x1e", "\x85", "\u2028", "\u2029"])
def test_string_refuses_a_line_boundary(boundary):
    """A quoted string ends on the line it starts, whichever boundary
    ``str.splitlines`` breaks it at: the reader names its opening quote."""
    assert sexpr.string(sexpr.read('""'), "s") == ""
    with pytest.raises(ParseError) as info:
        sexpr.read(f'(verb "ver{boundary}lieren")')
    assert (str(info.value), info.value.line, info.value.column) == (
        "1:7: unterminated string", 1, 7)
