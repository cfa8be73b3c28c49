"""Reader and canonical writer for the parenthesized-term file formats.

Every data file in this package (field definitions, rule tables,
lexicons, bindings, discourse scripts) and the structured CLI output
share one term syntax: nested parenthesized lists whose atoms are bare
symbols, integers, or double-quoted strings.  ``;`` starts a comment
that runs to end of line.  Input is whitespace-insensitive; the writer
emits the canonical form (one space between tokens, no trailing
whitespace), so equal values always print byte-identically.
"""

from __future__ import annotations

from .errors import ParseError

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


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value, line: int, column: int):
        self.kind = kind  # "(" | ")" | "atom"
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(ch: str):
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(_Token(ch, ch, line, col))
            advance(ch)
            i += 1
        elif ch == '"':
            start_line, start_col = line, col
            advance(ch)
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                ch = text[i]
                if ch == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    advance(ch)
                    advance(text[i + 1])
                    i += 2
                elif ch == '"':
                    advance(ch)
                    i += 1
                    break
                else:
                    buf.append(ch)
                    advance(ch)
                    i += 1
            tokens.append(_Token("atom", QuotedString("".join(buf)), start_line, start_col))
        else:
            start_line, start_col = line, col
            buf = []
            while i < n and text[i] not in " \t\r\n" and text[i] not in _DELIMS:
                buf.append(text[i])
                advance(text[i])
                i += 1
            word = "".join(buf)
            atom: Term = word
            if word.lstrip("-").isdigit() and word.lstrip("-"):
                atom = int(word)
            tokens.append(_Token("atom", atom, start_line, start_col))
    return tokens


def _parse(tokens: list[_Token], pos: int, depth: int = 1) -> tuple[Term, int]:
    tok = tokens[pos]
    if tok.kind == "atom":
        return tok.value, pos + 1
    if tok.kind == ")":
        raise ParseError("unexpected ')'", tok.line, tok.column)
    if depth > MAX_DEPTH:
        raise ParseError(f"terms nest deeper than {MAX_DEPTH} levels", tok.line, tok.column)
    items: list[Term] = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise ParseError("missing ')' before end of input", tok.line, tok.column)
        if tokens[pos].kind == ")":
            return items, pos + 1
        item, pos = _parse(tokens, pos, depth + 1)
        items.append(item)


def read(text: str) -> Term:
    """Read exactly one term; trailing material is an error."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    term, pos = _parse(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing material after term", extra.line, extra.column)
    return term


def read_all(text: str) -> list[Term]:
    """Read a whole file as a sequence of terms."""
    tokens = _tokenize(text)
    terms: list[Term] = []
    pos = 0
    while pos < len(tokens):
        term, pos = _parse(tokens, pos)
        terms.append(term)
    return terms


def _symbol_ok(word: str) -> bool:
    if not (_DELIMS.isdisjoint(word) and word.split() == [word]):
        return False
    # A symbol that would read back as an integer must not be written bare.
    return not (word.lstrip("-").isdigit() and word.lstrip("-"))


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
