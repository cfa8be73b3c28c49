"""Discourse-state tracking and the emphasis decision for recipients.

The tracker keeps the minimal textual statuses the generator consults:
which referents have been mentioned and which one is the hypertheme of
the text (settable once).  A recipient that is both given and the
hypertheme is verbalized with emphatic status: realized by dative case,
never in clause-final focus position; everything else stays nonemphatic
and may sit in focus.

Limitation: givenness, theme development and responsibility phenomena
are collapsed into this single given+hypertheme test; the statuses are
not independently variable here.
"""

from enum import Enum
from typing import NamedTuple

from . import sexpr
from .errors import HyperthemeError


class DiscourseState(NamedTuple):
    """Immutable mention history; updates return a new state."""

    mentioned: frozenset[str] = frozenset()
    hypertheme: str | None = None
    sentence_index: int = 0


EMPTY_STATE = DiscourseState()


class TextualStatus(NamedTuple):
    given: bool
    is_hypertheme: bool

    @property
    def givenness(self) -> str:
        return "given" if self.given else "new"


class EmphasisQ(Enum):
    __hash__ = object.__hash__  # by identity, as for ``emphasis.Case``

    EMPHATIC = "emphatic"
    NONEMPHATIC = "nonemphatic"


def update_discourse(
    state: DiscourseState,
    referents_mentioned: list[str] | tuple[str, ...],
    hypertheme_decl: str | None = None,
) -> DiscourseState:
    """Fold one sentence into the state.

    The hypertheme can be declared once; declaring it again with the
    same referent is a no-op, with a different one an error.  A declared
    hypertheme counts as mentioned.
    """
    hypertheme = state.hypertheme
    if hypertheme_decl is not None:
        if hypertheme is not None and hypertheme != hypertheme_decl:
            raise HyperthemeError(
                f"hypertheme already declared as {hypertheme}; "
                f"cannot redeclare as {hypertheme_decl}"
            )
        hypertheme = hypertheme_decl
    mentioned = state.mentioned | frozenset(referents_mentioned)
    if hypertheme_decl is not None:
        mentioned = mentioned | {hypertheme_decl}
    return DiscourseState(mentioned, hypertheme, state.sentence_index + 1)


def status_of(state: DiscourseState, referent: str) -> TextualStatus:
    """Textual status of a referent."""
    return TextualStatus(
        given=referent in state.mentioned,
        is_hypertheme=referent == state.hypertheme,
    )


def decide_emphasis_q(status_of_recipient: TextualStatus) -> EmphasisQ:
    """Emphatic status for the recipient participant.

    Given + hypertheme means emphatic, everything else nonemphatic.
    """
    if status_of_recipient.given and status_of_recipient.is_hypertheme:
        return EmphasisQ.EMPHATIC
    return EmphasisQ.NONEMPHATIC


# ---------------------------------------------------------------------------
# Discourse scripts


class SentenceUpdate(NamedTuple):
    mentions: tuple[str, ...]
    hypertheme: str | None = None


def parse_script(text: str) -> list[SentenceUpdate]:
    """Parse a script of ``(sentence (mentions r...) (hypertheme r)?)``
    terms, one context sentence each."""
    updates: list[SentenceUpdate] = []
    for term in sexpr.read_all(text):
        _, args = sexpr.clause(term, "a script line", {"sentence": (0, None)})
        found = sexpr.clauses(
            args, "a sentence clause", {"mentions": (0, None), "hypertheme": (1, 1)}
        )
        values = {  # converted in clause order
            head: tuple(sexpr.symbol(r, "a mentioned referent" if head == "mentions"
                                     else "the hypertheme") for r in rest)
            for head, rest in found.items()
        }
        (hypertheme,) = values.get("hypertheme", (None,))
        updates.append(SentenceUpdate(values.get("mentions", ()), hypertheme))
    return updates


def run_script(updates: list[SentenceUpdate]) -> DiscourseState:
    state = EMPTY_STATE
    for update in updates:
        state = update_discourse(state, update.mentions, update.hypertheme)
    return state
