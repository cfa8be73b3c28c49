"""Reader and canonical writer for the parenthesized-term file formats.

Every data file in this package (field definitions, rule tables,
lexicons, bindings, discourse scripts) and the structured CLI output
share one term syntax: nested parenthesized lists whose atoms are bare
symbols, integers, or double-quoted strings.  ``;`` starts a comment
that runs to end of line.  Input is whitespace-insensitive; the writer
emits the canonical form (one space between tokens, no trailing
whitespace), so equal values always print byte-identically.

The data-file parsers read each slot of a term through the accessors at
the end of this module, so the kind of term a slot takes, and the error
for any other, is decided here.
"""

from __future__ import annotations

import re
from typing import TypeVar

from .errors import ParseError

T = TypeVar("T")

_DELIMS = set("()\";")

# Deepest list nesting a term may have.  The reader and every recursive
# consumer of its terms (scheme construction, the writer) stays below
# the interpreter's recursion limit at this depth.
MAX_DEPTH = 200


class QuotedString(str):
    """Atom written with double quotes, as opposed to a bare symbol."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"QuotedString({str.__repr__(self)})"


# A term is an int, a symbol (plain str), a QuotedString, or a list of terms.
Term = int | str | list


# One alternative per token kind; together they match every character.
_TOKENS = re.compile(
    r"(\s+|;[^\n]*)"  # whitespace (str.isspace) or a comment
    r"|([()])"
    r'|"((?:[^"\\]|\\.)*)"'  # a quoted string's body
    r'|([^\s()";]+)'  # a bare word
    r'|(")',  # a string that is never closed
    re.S,
)
_ESCAPE = re.compile(r'\\(["\\])')

# A token is (kind, value, offset) with kind "(", ")" or "atom".
_Token = tuple[str, Term, int]


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKENS.finditer(text):
        _space, paren, string, word, unclosed = match.groups()
        if paren:
            tokens.append((paren, paren, match.start()))
        elif string is not None:
            tokens.append(("atom", QuotedString(_ESCAPE.sub(r"\1", string)), match.start()))
        elif word:
            atom: Term = word
            if _is_int(word):
                try:
                    atom = int(word)
                except ValueError:  # more digits than int() converts
                    raise _error(text, match.start(), "integer too long") from None
            tokens.append(("atom", atom, match.start()))
        elif unclosed:
            raise _error(text, match.start(), "unterminated string")
    return tokens


def _parse(text: str, tokens: list[_Token], pos: int, depth: int = 1) -> tuple[Term, int]:
    kind, value, offset = tokens[pos]
    if kind == "atom":
        return value, pos + 1
    if kind == ")":
        raise _error(text, offset, "unexpected ')'")
    if depth > MAX_DEPTH:
        raise _error(text, offset, f"terms nest deeper than {MAX_DEPTH} levels")
    items: list[Term] = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise _error(text, offset, "missing ')' before end of input")
        if tokens[pos][0] == ")":
            return items, pos + 1
        item, pos = _parse(text, tokens, pos, depth + 1)
        items.append(item)


def read(text: str) -> Term:
    """Read exactly one term; trailing material is an error."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    term, pos = _parse(text, tokens, 0)
    if pos != len(tokens):
        raise _error(text, tokens[pos][2], "trailing material after term")
    return term


def read_all(text: str) -> list[Term]:
    """Read a whole file as a sequence of terms."""
    tokens = _tokenize(text)
    terms: list[Term] = []
    pos = 0
    while pos < len(tokens):
        term, pos = _parse(text, tokens, pos)
        terms.append(term)
    return terms


def _is_int(word: str) -> bool:
    """An integer literal: ASCII digits with at most one leading ``-``."""
    digits = word.removeprefix("-")
    return digits.isdigit() and digits.isascii()


def _symbol_ok(word: str) -> bool:
    # A symbol that would read back as an integer must not be written bare.
    return _DELIMS.isdisjoint(word) and word.split() == [word] and not _is_int(word)


def write(term: Term) -> str:
    """Canonical text for a term: single spaces, no trailing whitespace."""
    if isinstance(term, bool):
        raise ValueError("booleans are not term atoms")
    if isinstance(term, QuotedString):
        body = term.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{body}"'
    if isinstance(term, int):
        return str(term)
    if isinstance(term, str):
        if not _symbol_ok(term):
            raise ValueError(f"not writable as a bare symbol: {term!r}")
        return term
    if isinstance(term, (list, tuple)):
        return "(" + " ".join(write(item) for item in term) + ")"
    raise ValueError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Term shapes
#
# Each accessor takes a term and a name for the slot it fills, and either
# returns the value or raises ParseError naming the slot and showing the
# term as written, on one line.


def _wrong(term: Term, slot: str, expected: str) -> ParseError:
    shown = " ".join(write(term).splitlines())  # one line, even for a quoted newline
    return ParseError(f"{slot} must be {expected}, got {shown}")


def symbol(term: Term, slot: str) -> str:
    """A bare symbol."""
    if type(term) is str:
        return term
    raise _wrong(term, slot, "a symbol")


def string(term: Term, slot: str) -> str:
    """The text of a quoted string on one line: output writes each term on
    one line, and the reader has no escape for a line boundary."""
    if not isinstance(term, QuotedString):
        raise _wrong(term, slot, "a quoted string")
    if "".join(term.splitlines()) != term:
        raise _wrong(term, slot, "a quoted string on one line")
    return str(term)


def integer(term: Term, slot: str) -> int:
    """An integer."""
    if type(term) is int:
        return term
    raise _wrong(term, slot, "an integer")


def variable(term: Term, slot: str) -> str:
    """The name of a ``?variable``; the name is itself a symbol."""
    if type(term) is str and term[:1] == "?" and _symbol_ok(term[1:]):
        return term[1:]
    raise _wrong(term, slot, "a ?variable")


def path(term: Term, slot: str) -> tuple[int, ...]:
    """A node path: a list of child indices."""
    if type(term) is list and all(type(i) is int for i in term):
        return tuple(term)
    raise _wrong(term, slot, "a list of child indices")


def lookup(term: Term, slot: str, table: dict[str, T]) -> T:
    """The value ``table`` gives the symbol."""
    if type(term) is str and term in table:
        return table[term]
    raise _wrong(term, slot, "|".join(table))


Arity = tuple[int, int | None]  # least and most argument count (None: no limit)


def clause(
    term: Term, slot: str, arities: dict[str, Arity] | Arity
) -> tuple[str, list]:
    """Head and arguments of a non-empty list with a symbol head.

    ``arities`` maps each allowed head to its arity, or is one arity for
    any head.
    """
    if type(term) is not list or not term or type(term[0]) is not str:
        raise _wrong(term, slot, "a parenthesized term with a symbol head")
    head, args = term[0], term[1:]
    if isinstance(arities, dict):
        if head not in arities:
            raise _wrong(term, slot, " or ".join(f"({h} ...)" for h in arities))
        arities = arities[head]
    least, most = arities
    if len(args) < least or (most is not None and len(args) > most):
        count = (
            str(least) if most == least
            else f"at least {least}" if most is None
            else f"{least} to {most}"
        )
        raise _wrong(term, slot, f"({head} ...) with {count} argument(s)")
    return head, args
