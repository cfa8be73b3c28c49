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

from __future__ import annotations

from typing import NamedTuple

from . import sexpr
from .discourse import EmphasisQ
from .errors import ParseError, UnverbalizedRoleError
from .lexicon import ProcessSelection, VerbEntry
from .scheme import Binding

RECIPIENT_ROLE = "recipient"


class _SplFields(NamedTuple):
    head: str
    um_type: str
    slots: tuple[tuple[str, "SplTerm | str"], ...]


class SplTerm(_SplFields):
    """Typed plan term with ordered keyword slots."""

    __slots__ = ()

    def __new__(cls, head: str, um_type: str, slots: tuple = ()):
        for keyword, _ in slots:
            if not keyword.startswith(":"):
                raise ValueError(f"slot keyword must start with ':': {keyword!r}")
        return super().__new__(cls, head, um_type, slots)

    def slot(self, keyword: str) -> "SplTerm | str | None":
        for kw, filler in self.slots:
            if kw == keyword:
                return filler
        return None


def build_spl(
    form,
    selection: ProcessSelection,
    verb: VerbEntry,
    binding: Binding,
    emphasis_q: EmphasisQ | None = None,
) -> SplTerm:
    """Plan term for one classified form under a validated binding.

    The head is the verb's event symbol; each participant is filled
    with ``(referent / sort)``; an emphasis-q annotation, when given,
    rides on the recipient filler.
    """
    if emphasis_q is not None and selection.variable_for(RECIPIENT_ROLE) is None:
        raise UnverbalizedRoleError(
            "emphasis-q requested but the form verbalizes no recipient"
        )
    slots: list[tuple[str, SplTerm | str]] = []
    for um_role, variable in selection.participants:
        referent = binding.referent(variable)
        if referent is None:
            raise UnverbalizedRoleError(
                f"binding has no referent for participant variable {variable}"
            )
        annotations: tuple[tuple[str, SplTerm | str], ...] = ()
        if emphasis_q is not None and um_role == RECIPIENT_ROLE:
            annotations = ((":emphasis-q", emphasis_q.value),)
        slots.append(
            (":" + um_role, SplTerm(referent.name, referent.sort, annotations))
        )
    return SplTerm(verb.event, selection.um_type, tuple(slots))


def _term_to_sexpr(term: SplTerm) -> list:
    out: list = [term.head, "/", term.um_type]
    for keyword, filler in term.slots:
        out.append(keyword)
        out.append(_term_to_sexpr(filler) if isinstance(filler, SplTerm) else filler)
    return out


def serialize_spl(term: SplTerm) -> str:
    """Canonical one-line text of the plan term."""
    return sexpr.write(_term_to_sexpr(term))


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
