"""Discourse-state tracking and the emphasis decision for recipients.

The tracker keeps the minimal textual statuses the generator consults:
which referents have been mentioned, which one is the hypertheme of the
text (settable once), and a caller-supplied focus choice.  A recipient
that is both given and the hypertheme is verbalized with emphatic
status: realized by dative case, never in clause-final focus position;
everything else stays nonemphatic and may sit in focus.

Limitation: givenness, theme development and responsibility phenomena
are collapsed into this single given+hypertheme test; the statuses are
not independently variable here.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import sexpr
from .errors import FocusConflictError, HyperthemeError


class DiscourseState(NamedTuple):
    """Immutable mention history; updates return a new state."""

    mentioned: frozenset[str] = frozenset()
    hypertheme: str | None = None
    sentence_index: int = 0


EMPTY_STATE = DiscourseState()


class TextualStatus(NamedTuple):
    given: bool
    is_hypertheme: bool
    in_focus: bool = False

    @property
    def givenness(self) -> str:
        return "given" if self.given else "new"


class EmphasisQ(Enum):
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


def status_of(state: DiscourseState, referent: str, in_focus: bool = False) -> TextualStatus:
    """Textual status of a referent; focus is the caller's choice."""
    return TextualStatus(
        given=referent in state.mentioned,
        is_hypertheme=referent == state.hypertheme,
        in_focus=in_focus,
    )


def decide_emphasis_q(status_of_recipient: TextualStatus) -> EmphasisQ:
    """Emphatic status for the recipient participant.

    Given + hypertheme means emphatic; an emphatic participant may not
    also be requested in focus position, which is reserved for new,
    non-thematic information.
    """
    if status_of_recipient.given and status_of_recipient.is_hypertheme:
        if status_of_recipient.in_focus:
            raise FocusConflictError(
                "an emphatic participant cannot take the focus position, "
                "which is reserved for new, non-thematic information"
            )
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
        mentions: tuple[str, ...] = ()
        hypertheme = None
        for clause in args:
            head, rest = sexpr.clause(
                clause, "a sentence clause", {"mentions": (0, None), "hypertheme": (1, 1)}
            )
            if head == "mentions":
                mentions = tuple(sexpr.symbol(r, "a mentioned referent") for r in rest)
            else:
                hypertheme = sexpr.symbol(rest[0], "the hypertheme")
        updates.append(SentenceUpdate(mentions, hypertheme))
    return updates


def run_script(
    updates: list[SentenceUpdate], state: DiscourseState = EMPTY_STATE
) -> DiscourseState:
    for update in updates:
        state = update_discourse(state, update.mentions, update.hypertheme)
    return state
