"""Reader and canonical writer for the parenthesized-term file formats.

Every data file in this package (field definitions, rule tables,
lexicons, bindings, discourse scripts) and the structured CLI output
share one term syntax: nested parenthesized lists whose atoms are bare
symbols, integers, or double-quoted strings, each string ending on the
line it starts.  ``;`` starts a comment that runs to end of line.
Input is whitespace-insensitive; the writer emits the canonical form
(one space between tokens, no trailing whitespace), so equal values
always print byte-identically.

The reader makes one pass: a single regular-expression scan splits the
text into tokens, and one loop keeps a stack of the lists still open and
converts each atom as it comes.  A token's line and column are counted
only for an error.  An atom that does not read (a string not closed on
its line, an integer longer than ``int()`` converts) is reported before
any bracket fault, wherever it sits in the text.

The data-file parsers read each slot of a term through the accessors at
the end of this module, so the kind of term a slot takes, and the error
for any other, is decided here.  ``clauses`` reads a bag of clauses, each
head at most once, for every grammar that has one.
"""

import re
from functools import lru_cache
from itertools import islice
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


# The characters str.splitlines breaks a line at ("\r\n" is one break of two).
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# A paren, a comment, a quoted string, a bare word, or a '"' not closed
# before the next line boundary; whitespace (str.isspace) is what no
# alternative matches.
_TOKEN = re.compile(rf'[()]|;[^\n]*|"(?:[^"\\{_BREAKS}]|\\[^{_BREAKS}])*"|[^\s()";]+|"')
_ESCAPE = re.compile(r'\\(["\\])')
_CONVERTED = '"-0123456789'  # first characters of the atoms _atom converts


def _error(text: str, index: int, message: str) -> ParseError:
    """The error at the ``index``-th token of ``text``, with its position."""
    offset = next(islice(_TOKEN.finditer(text), index, None)).start()
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _atom(text: str, index: int, token: str) -> Term:
    """A quoted string, an integer, or a symbol that opens with ``-`` or a digit."""
    if token[0] == '"':
        if token == '"':
            raise _error(text, index, "unterminated string")
        return QuotedString(_ESCAPE.sub(r"\1", token[1:-1]))
    if not _is_int(token):
        return token
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise _error(text, index, "integer too long") from None


def _misfit(text: str, tokens: list[str], index: int, message: str) -> ParseError:
    """The bracket fault at ``tokens[index]``, or the first atom that does not read."""
    for i, token in enumerate(tokens):
        if token[0] in _CONVERTED:
            _atom(text, i, token)
    return _error(text, index, message)


def _read(text: str, one: bool) -> list[Term]:
    """The terms of ``text``; with ``one``, a token after the first is trailing material."""
    tokens = _TOKEN.findall(text)
    terms: list[Term] = []
    items, stack = terms, []
    for index, token in enumerate(tokens):
        head = token[0]
        if head == ";":
            continue
        if one and terms and not stack:
            raise _misfit(text, tokens, index, "trailing material after term")
        if head == "(":
            if len(stack) == MAX_DEPTH:
                raise _misfit(text, tokens, index, f"terms nest deeper than {MAX_DEPTH} levels")
            stack.append(items)
            items = []
            stack[-1].append(items)
        elif head == ")":
            if not stack:
                raise _misfit(text, tokens, index, "unexpected ')'")
            items = stack.pop()
        else:
            items.append(_atom(text, index, token) if head in _CONVERTED else token)
    if stack:  # report the innermost list left open
        index, depth = len(tokens), 0
        while depth >= 0:
            index -= 1
            depth += (tokens[index] == ")") - (tokens[index] == "(")
        raise _misfit(text, tokens, index, "missing ')' before end of input")
    return terms


def read(text: str) -> Term:
    """Read exactly one term; trailing material is an error."""
    terms = _read(text, True)
    if not terms:
        raise ParseError("empty input", 1, 1)
    return terms[0]


def read_all(text: str) -> list[Term]:
    """Read a whole file as a sequence of terms."""
    return _read(text, False)


def _is_int(word: str) -> bool:
    """An integer literal: ASCII digits with at most one leading ``-``."""
    digits = word.removeprefix("-")
    return digits.isdigit() and digits.isascii()


@lru_cache(maxsize=4096)  # the writer asks again for every repeated symbol
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
        return "(" + " ".join([write(item) for item in term]) + ")"
    raise ValueError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Term shapes
#
# Each accessor takes a term and a name for the slot it fills, and either
# returns the value or raises ParseError naming the slot and showing the
# term as written, on one line.


def _wrong(term: Term, slot: str, expected: str) -> ParseError:
    return ParseError(f"{slot} must be {expected}, got {write(term)}")


def symbol(term: Term, slot: str) -> str:
    """A bare symbol."""
    if type(term) is str:
        return term
    raise _wrong(term, slot, "a symbol")


def string(term: Term, slot: str) -> str:
    """The text of a quoted string, which the reader ends on its line."""
    if isinstance(term, QuotedString):
        return str(term)
    raise _wrong(term, slot, "a quoted string")


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


def clauses(terms: list[Term], slot: str, arities: dict[str, Arity]) -> dict[str, list]:
    """The arguments of each ``clause`` among ``terms``, by head, in clause
    order; a head that appears twice is an error."""
    found: dict[str, list] = {}
    for term in terms:
        head, args = clause(term, slot, arities)
        if head in found:
            raise ParseError(f"{slot} repeats ({head} ...)")
        found[head] = args
    return found
