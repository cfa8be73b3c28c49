"""Sentence-plan terms and their canonical text form.

A plan term is ``(head / type :slot filler ...)``: an event or entity
identifier typed by an upper-model name, with keyword slots whose
fillers are nested terms or plain annotation symbols.  Participant
slots come first in the canonical order of the role map (actor,
recipient, actee); the only annotation emitted is ``:emphasis-q``
with value ``emphatic`` or ``nonemphatic`` on a participant filler.

Serialization is canonical (single spaces) and invertible via
``parse_spl``.
"""

from typing import NamedTuple

from . import sexpr
from .discourse import EmphasisQ
from .errors import ParseError, UnverbalizedRoleError
from .lexicon import ProcessSelection, VerbEntry
from .scheme import Binding
from .sexpr import _symbol_ok

RECIPIENT_ROLE = "recipient"


class SplTerm(NamedTuple):
    """Typed plan term with ordered keyword slots.  A term is built unchecked;
    its keywords are checked where text is read (``parse_spl``) or written
    (``serialize_spl``)."""

    head: str
    um_type: str
    slots: tuple[tuple[str, "SplTerm | str"], ...] = ()

    def slot(self, keyword: str) -> "SplTerm | str | None":
        for kw, filler in self.slots:
            if kw == keyword:
                return filler
        return None


def build_spl(
    selection: ProcessSelection,
    verb: VerbEntry,
    binding: Binding,
    emphasis_q: EmphasisQ | None = None,
) -> SplTerm:
    """Plan term for one process selection under a validated binding.

    The head is the verb's event symbol; each participant is filled
    with ``(referent / sort)``; an emphasis-q annotation, when given,
    rides on the recipient filler.
    """
    if emphasis_q is not None and selection.variable_for(RECIPIENT_ROLE) is None:
        raise UnverbalizedRoleError(
            "emphasis-q requested but the form verbalizes no recipient"
        )
    annotation = () if emphasis_q is None else ((":emphasis-q", emphasis_q.value),)
    slots: list[tuple[str, SplTerm | str]] = []
    for um_role, variable in selection.participants:
        referent = binding.referent(variable)
        if referent is None:
            raise UnverbalizedRoleError(
                f"binding has no referent for participant variable {variable}"
            )
        annotations = annotation if um_role == RECIPIENT_ROLE else ()
        slots.append((":" + um_role, SplTerm(referent.name, referent.sort, annotations)))
    return SplTerm(verb.event, selection.um_type, tuple(slots))


def serialize_spl(term: SplTerm) -> str:
    """Canonical one-line text of the plan term, the text ``sexpr.write``
    gives the term as a list, and only text ``parse_spl`` reads back: an
    atom that is not a bare symbol (a ``QuotedString``, an integer, a word
    that would not read back as itself), or a slot keyword without its
    ``:``, raises ``ValueError``.  Each bare symbol's verdict is kept in
    ``sexpr``'s cache, so a repeat costs one hit."""
    return _write(term)  # recursing below the public name: one traced call per plan


def _write(term: SplTerm) -> str:
    """The text of ``term``, written in one pass with each atom checked in
    place: ``_symbol_ok`` is asked only of a ``str`` (a ``QuotedString``
    shares its cache entry with the equal symbol)."""
    head, um_type, slots = term
    if type(head) is not str or not _symbol_ok(head):
        raise _unwritable(head)
    if type(um_type) is not str or not _symbol_ok(um_type):
        raise _unwritable(um_type)
    text = f"({head} / {um_type}"
    for keyword, filler in slots:
        if type(keyword) is not str or not _symbol_ok(keyword):
            raise _unwritable(keyword)
        if keyword[0] != ":":  # what parse_spl reads as a keyword: a bare symbol with ':'
            raise ValueError(f"slot keyword must start with ':': {keyword!r}")
        if isinstance(filler, SplTerm):
            filler = _write(filler)
        elif type(filler) is not str or not _symbol_ok(filler):
            raise _unwritable(filler)
        text += f" {keyword} {filler}"
    return text + ")"


def _unwritable(value) -> ValueError:
    return ValueError(f"not writable as a bare symbol: {value!r}")


def _term_from_sexpr(value) -> SplTerm:
    head, args = sexpr.clause(value, "a plan term", (2, None))
    sexpr.lookup(args[0], "the separator of a plan term", {"/": "/"})
    um_type = sexpr.symbol(args[1], "the type of a plan term")
    rest = args[2:]
    if len(rest) % 2 != 0:
        raise ParseError("plan slots come in :keyword filler pairs")
    slots: list[tuple[str, SplTerm | str]] = []
    for keyword, filler in zip(rest[::2], rest[1::2]):
        keyword = sexpr.symbol(keyword, "a plan slot keyword")
        if not keyword.startswith(":"):
            raise ParseError(f"expected a :keyword, got {keyword}")
        if isinstance(filler, list):
            slots.append((keyword, _term_from_sexpr(filler)))
        else:
            slots.append((keyword, sexpr.symbol(filler, f"the filler of {keyword}")))
    return SplTerm(head, um_type, tuple(slots))


def parse_spl(text: str) -> SplTerm:
    """Inverse of ``serialize_spl`` (whitespace-insensitive)."""
    return _term_from_sexpr(sexpr.read(text))
