"""Template-based German surface realization.

One fixed declarative verb-second template covers the shipped field:
nominative subject, finite verb (present, 3sg), then dative object,
accusative object, prepositional objects, separable prefix, full stop.
Because the dative slot always precedes the accusative slot, a dative
pronoun can never trail an accusative object.  The clause-final content
constituent is the focus position: a participant verbalized with
emphatic status (dative) is refused there.

Noun phrases come from a small per-referent lexicon (noun with gender
and definiteness, or pronoun) inflected through determiner/pronoun
form tables.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import sexpr
from .discourse import EmphasisQ
from .emphasis import CASES, Case, Oblique, SemanticForm
from .errors import (
    InputError,
    MissingMorphologyError,
    OrderingConflictError,
    ParseError,
)
from .lexicon import VerbEntry
from .scheme import Binding


class Gender(Enum):
    MASCULINE = "masc"
    FEMININE = "fem"
    NEUTER = "neut"


class Definiteness(Enum):
    DEFINITE = "def"
    INDEFINITE = "indef"
    PRONOUN = "pronoun"


class NPSpec(NamedTuple):
    """One noun phrase to inflect; pronouns ignore definiteness."""

    head: str  # noun lemma or referent name for pronouns
    case: Case
    gender: Gender
    definiteness: Definiteness


class NounEntry(NamedTuple):
    lemma: str
    gender: Gender
    definiteness: Definiteness


class PronounEntry(NamedTuple):
    gender: Gender


NPLexicon = dict[str, "NounEntry | PronounEntry"]


class MorphTable(NamedTuple):
    articles: dict[tuple[Definiteness, Gender, Case], str]
    pronouns: dict[tuple[Gender, Case], str]


def inflect_np(spec: NPSpec, table: MorphTable) -> str:
    """Inflected NP text, e.g. ``den Schlüssel`` or ``ihm``."""
    if spec.definiteness is Definiteness.PRONOUN:
        form = table.pronouns.get((spec.gender, spec.case))
        if form is None:
            raise MissingMorphologyError(
                f"no {spec.gender.value} pronoun form for {spec.case.value}"
            )
        return form
    article = table.articles.get((spec.definiteness, spec.gender, spec.case))
    if article is None:
        raise MissingMorphologyError(
            f"no {spec.definiteness.value} {spec.gender.value} article "
            f"for {spec.case.value}"
        )
    return f"{article} {spec.head}"


def np_spec_for(referent_name: str, case: Case, np_lexicon: NPLexicon) -> NPSpec:
    entry = np_lexicon.get(referent_name)
    if entry is None:
        raise MissingMorphologyError(f"no NP entry for referent {referent_name}")
    if isinstance(entry, PronounEntry):
        return NPSpec(referent_name, case, entry.gender, Definiteness.PRONOUN)
    return NPSpec(entry.lemma, case, entry.gender, entry.definiteness)


def realize(
    form: SemanticForm,
    verb: VerbEntry,
    binding: Binding,
    np_lexicon: NPLexicon,
    morph_table: MorphTable,
    emphasis_q: EmphasisQ | None = None,
) -> str:
    """Declarative sentence for a form its verb lexicalizes."""
    if not verb.matches(form):
        raise InputError(
            f"verb {verb.lemma!r} does not lexicalize this form's pattern"
        )

    def np_text(variable: str, case: Case) -> str:
        referent = binding.referent(variable)
        if referent is None:
            raise InputError(f"binding has no referent for variable {variable}")
        return inflect_np(np_spec_for(referent.name, case, np_lexicon), morph_table)

    subjects = form.realization.variables_with(Case.NOMINATIVE)
    if len(subjects) != 1:
        raise InputError("the template needs exactly one nominative participant")
    if form.realization.variables_with(Case.GENITIVE):
        raise InputError("genitive participants are outside the template")
    datives = form.realization.variables_with(Case.DATIVE)
    accusatives = form.realization.variables_with(Case.ACCUSATIVE)
    obliques = form.realization.oblique_variables()

    middle: list[tuple[str, str]] = []  # (variable, text)
    for v in datives:
        middle.append((v, np_text(v, Case.DATIVE)))
    for v in accusatives:
        middle.append((v, np_text(v, Case.ACCUSATIVE)))
    for v in obliques:
        oblique = form.realization.of(v)
        assert isinstance(oblique, Oblique)
        middle.append(
            (v, f"{oblique.preposition} {np_text(v, oblique.governed)}")
        )

    if emphasis_q is EmphasisQ.EMPHATIC:
        if not datives:
            raise OrderingConflictError(
                "emphatic recipient status requires a dative participant"
            )
        if middle and middle[-1][0] == datives[0]:
            raise OrderingConflictError(
                "the emphatic (dative) participant would end up in "
                "clause-final focus position"
            )

    words = [np_text(subjects[0], Case.NOMINATIVE), verb.present_3sg]
    words.extend(text for _, text in middle)
    if verb.prefix:
        words.append(verb.prefix)
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + "."


# ---------------------------------------------------------------------------
# Data files


_GENDERS = {gender.value: gender for gender in Gender}
# a noun or an article is definite or not; only pronouns are PRONOUN
_DEFINITENESS = {"def": Definiteness.DEFINITE, "indef": Definiteness.INDEFINITE}


def parse_np_lexicon(text: str) -> NPLexicon:
    """Parse ``(np referent lemma gender def|indef)`` and
    ``(pronoun referent gender)`` entries."""
    lexicon: NPLexicon = {}
    for term in sexpr.read_all(text):
        head, args = sexpr.clause(
            term, "an NP lexicon entry", {"np": (4, 4), "pronoun": (2, 2)}
        )
        key = sexpr.symbol(args[0], "a referent")
        gender = sexpr.lookup(args[-2 if head == "np" else -1], "a gender", _GENDERS)
        if head == "np":
            entry: NounEntry | PronounEntry = NounEntry(
                sexpr.symbol(args[1], "a noun lemma"),
                gender,
                sexpr.lookup(args[3], "a noun definiteness", _DEFINITENESS),
            )
        else:
            entry = PronounEntry(gender)
        if key in lexicon:
            raise ParseError(f"duplicate NP entry for referent {key}")
        lexicon[key] = entry
    return lexicon


def parse_morph_table(text: str) -> MorphTable:
    """Parse ``(article def|indef gender case form)`` and
    ``(pronoun-form gender case form)`` rows."""
    articles: dict[tuple[Definiteness, Gender, Case], str] = {}
    pronouns: dict[tuple[Gender, Case], str] = {}
    for term in sexpr.read_all(text):
        head, args = sexpr.clause(
            term, "a morphology row", {"article": (4, 4), "pronoun-form": (3, 3)}
        )
        gender, case, form = args[-3:]
        key: tuple = (
            sexpr.lookup(gender, "a gender", _GENDERS),
            sexpr.lookup(case, "a grammatical case", CASES),
        )
        rows: dict = pronouns
        if head == "article":
            key = (sexpr.lookup(args[0], "an article definiteness", _DEFINITENESS),) + key
            rows = articles
        if key in rows:
            raise ParseError(f"duplicate morphology row: {sexpr.write(term)}")
        rows[key] = sexpr.symbol(form, "an inflected form")
    return MorphTable(articles, pronouns)
