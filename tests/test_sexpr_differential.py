"""The term reader against a reference copy of the two-pass reader it
replaced: the whole text tokenized first, then a recursive parse.

The reference is kept here as the contract: for every text, ``read``
and ``read_all`` give the same value with the same atom types, or the
same error message, line and column.  Its one change since it was
copied: a quoted string ends on the line it starts (at any boundary
``str.splitlines`` knows), so a quote left open is reported where it is,
not where the next string opens.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from emphase import sexpr
from emphase.errors import ParseError
from emphase.sexpr import MAX_DEPTH, QuotedString

# ---------------------------------------------------------------------------
# Reference reader: tokenize the whole text, then parse recursively.

_BREAKS = "".join(c for c in map(chr, range(0x2030)) if len(f"a{c}b".splitlines()) == 2)
_TOKENS = re.compile(
    r"(\s+|;[^\n]*)"  # whitespace (str.isspace) or a comment
    r"|([()])"
    rf'|"((?:[^"\\{_BREAKS}]|\\[^{_BREAKS}])*)"'  # a quoted string's body, on one line
    r'|([^\s()";]+)'  # a bare word
    r'|(")',  # a string not closed on its line
)
_ESCAPE = re.compile(r'\\(["\\])')


def _is_int(word):
    digits = word.removeprefix("-")
    return digits.isdigit() and digits.isascii()


def _error(text, offset, message):
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text):
    tokens = []
    for match in _TOKENS.finditer(text):
        _space, paren, string, word, unclosed = match.groups()
        if paren:
            tokens.append((paren, paren, match.start()))
        elif string is not None:
            tokens.append(("atom", QuotedString(_ESCAPE.sub(r"\1", string)), match.start()))
        elif word:
            atom = word
            if _is_int(word):
                try:
                    atom = int(word)
                except ValueError:  # more digits than int() converts
                    raise _error(text, match.start(), "integer too long") from None
            tokens.append(("atom", atom, match.start()))
        elif unclosed:
            raise _error(text, match.start(), "unterminated string")
    return tokens


def _parse(text, tokens, pos, depth=1):
    kind, value, offset = tokens[pos]
    if kind == "atom":
        return value, pos + 1
    if kind == ")":
        raise _error(text, offset, "unexpected ')'")
    if depth > MAX_DEPTH:
        raise _error(text, offset, f"terms nest deeper than {MAX_DEPTH} levels")
    items = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise _error(text, offset, "missing ')' before end of input")
        if tokens[pos][0] == ")":
            return items, pos + 1
        item, pos = _parse(text, tokens, pos, depth + 1)
        items.append(item)


def reference_read(text):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    term, pos = _parse(text, tokens, 0)
    if pos != len(tokens):
        raise _error(text, tokens[pos][2], "trailing material after term")
    return term


def reference_read_all(text):
    tokens = _tokenize(text)
    terms = []
    pos = 0
    while pos < len(tokens):
        term, pos = _parse(text, tokens, pos)
        terms.append(term)
    return terms


# ---------------------------------------------------------------------------


def _typed(term):
    """A term with the type of every atom spelled out, so that ``1`` and
    ``"1"``, or a symbol and a quoted string, compare unequal."""
    if isinstance(term, list):
        return [_typed(item) for item in term]
    return (type(term).__name__, term)


def _outcome(reader, text):
    """The typed value ``reader`` gives, or its error's message and position."""
    try:
        return "value", _typed(reader(text))
    except ParseError as error:
        return "error", str(error), error.line, error.column


def _assert_agrees(text):
    assert _outcome(sexpr.read, text) == _outcome(reference_read, text)
    assert _outcome(sexpr.read_all, text) == _outcome(reference_read_all, text)


# Delimiters, the escape, whitespace (the separator \x1c too), and atoms
# that read as symbols, integers, or digits outside ASCII.
_ALPHABET = ["(", ")", '"', ";", "\\", " ", "\n", "\x1c", "a", "-", "0", "1", "٣", "é"]


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_ALPHABET, max_size=20))
def test_reader_agrees_with_the_reference_on_random_texts(text):
    _assert_agrees(text)


@pytest.mark.parametrize("text, reader, expected", [
    # an unreadable atom anywhere beats any bracket error before it
    (') "x', sexpr.read, ("1:3: unterminated string", 1, 3)),
    (') "x', sexpr.read_all, ("1:3: unterminated string", 1, 3)),
    (") " + "9" * 5000, sexpr.read, ("1:3: integer too long", 1, 3)),
    (") " + "9" * 5000, sexpr.read_all, ("1:3: integer too long", 1, 3)),
    # read reports trailing material before the stray ')' it is
    ("(a) )", sexpr.read, ("1:5: trailing material after term", 1, 5)),
    ("(a) )", sexpr.read_all, ("1:5: unexpected ')'", 1, 5)),
    # the depth error sits on the first '(' too deep, unless read has a
    # whole term before it
    ("(" * (MAX_DEPTH + 1), sexpr.read,
     (f"1:{MAX_DEPTH + 1}: terms nest deeper than {MAX_DEPTH} levels", 1, MAX_DEPTH + 1)),
    ("x " + "(" * (MAX_DEPTH + 1), sexpr.read, ("1:3: trailing material after term", 1, 3)),
    # missing ')' sits on the innermost '(' left open
    ("(a (b (c)\n", sexpr.read, ("1:4: missing ')' before end of input", 1, 4)),
    ("; only\n; comments", sexpr.read, ("1:1: empty input", 1, 1)),
    # a quote left open is reported, not the next string's opening quote
    ('(a "x)\n(b "y")\n', sexpr.read_all, ("1:4: unterminated string", 1, 4)),
])
def test_fixed_cases(text, reader, expected):
    with pytest.raises(ParseError) as info:
        reader(text)
    assert (str(info.value), info.value.line, info.value.column) == expected
    _assert_agrees(text)
