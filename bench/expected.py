"""Hand-written expected outputs of the shipped bundle.

Sentences, process types and plan terms are the ones asserted by
``tests/test_acceptance.py`` (criteria 4-7), ``tests/test_spl.py`` and
the README.
"""

SEND_DATIVE_PLAN = """
(send / directed-action
  :actor (he / person)
  :recipient
    (him / person
      :emphasis-q emphatic)
  :actee (invitation / object))
"""

SEND_OBLIQUE_PLAN = """
(send / directed-action
  :actor (he / person)
  :recipient
    (him / person
      :emphasis-q nonemphatic)
  :actee (invitation / object))
"""

SENTENCES = {
    "verlieren": "Sie verliert den Schlüssel.",
    "wegwerfen": "Sie wirft den Schlüssel weg.",
    "schicken-dative": "Er schickt ihm eine Einladung.",
    "schicken-oblique": "Er schickt eine Einladung an ihn.",
}

PROCESS_TYPES = {
    "verlieren": "dispositive-material-action",
    "wegwerfen": "dispositive-material-action",
    "schicken": "directed-action",
}

# criterion 1: the case frame of the change-of-possession scheme
CASE_FRAME = {
    "a": ("agens", "act"),
    "a1": ("goal", "have"),
    "a2": ("to-obj", "have"),
    "a3": ("source", "have"),
    "a4": ("from-obj", "have"),
}


def tokens(text: str) -> list[str]:
    """Whitespace-insensitive token list of a term."""
    return text.replace("(", " ( ").replace(")", " ) ").split()
