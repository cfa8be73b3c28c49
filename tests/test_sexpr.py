"""Reader/writer tests for the shared term syntax."""

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
