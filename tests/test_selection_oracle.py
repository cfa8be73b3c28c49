"""An independent oracle for process selection, over random process rules.

``oracle_selection`` reads each rule from the rule text itself, with
``sexpr.read_all``, and evaluates its condition from three things: the
case frame (the first variable of each role label, in frame order), the
form's emphasis paths (a variable is emphatic when its basic proposition
is) and its realization (a variable is verbalized unless it is blocked).
It goes through neither the engine's rule records nor
``SemanticForm.variable_with_label``, so a wrong selection key, condition
or participant map in the engine shows as a disagreement with it.

Random bundles take their field, role-rule table, oblique table and case
priorities from ``bruteforce``'s generators and are written as data files;
their process rules and role maps come from ``random_process_text``.
"""

import contextlib
import io
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from emphase import cli, sexpr
from emphase.emphasis import pattern_text
from emphase.errors import AmbiguousProcessError, OverlappingRulesError, UnclassifiedFormError
from emphase.pipeline import DATA_FILES, Config, load_bundle, read_data
from emphase.scheme import print_field
from emphase.sexpr import QuotedString

from conftest import atlas_of

from bruteforce import (
    case_frame_oracle,
    random_field,
    random_oblique,
    random_priority,
    random_scheme,
    random_table,
    realization_key,
)

ABSENT_LABEL = "absent"  # a label no random frame holds
UM_TYPES = ("action", "directed-action", "dispositive-material-action", "transfer")
UM_ROLES = ("actor", "recipient", "actee")


# ---------------------------------------------------------------------------
# Random process rules and role maps


def random_condition(rng: random.Random, labels: list[str], depth: int = 0) -> list:
    """A condition term nested at most 3 deep over ``labels``."""
    if depth == 3 or rng.random() < 0.4:
        return [rng.choice(("emphatic", "blocked", "unblocked")), rng.choice(labels)]
    head = rng.choice(("and", "or", "not"))
    if head == "not":
        return ["not", random_condition(rng, labels, depth + 1)]
    return [head, *(random_condition(rng, labels, depth + 1) for _ in range(rng.randint(0, 3)))]


def random_process_text(rng: random.Random, labels: list[str]) -> str:
    """1-4 process rules and 0-3 role maps over ``labels`` and one absent label.
    ``transfer`` is a process type the shipped upper model lacks."""
    labels = sorted(labels) + [ABSENT_LABEL]
    terms = [["process-rule", rng.choice(UM_TYPES), random_condition(rng, labels)]
             for _ in range(rng.randint(1, 4))]
    terms += [["role-map", rng.choice(UM_ROLES),
               *rng.sample(labels, rng.randint(1, min(3, len(labels))))]
              for _ in range(rng.randint(0, 3))]
    return "\n".join(map(sexpr.write, terms)) + "\n"


# ---------------------------------------------------------------------------
# The oracle


def _holds(condition: list, first: dict, emphatic: set, verbalized: set) -> bool:
    head, *args = condition
    if head == "and":
        return all(_holds(c, first, emphatic, verbalized) for c in args)
    if head == "or":
        return any(_holds(c, first, emphatic, verbalized) for c in args)
    if head == "not":
        return not _holds(args[0], first, emphatic, verbalized)
    variable = first.get(args[0])  # None when the frame lacks the label
    if head == "emphatic":
        return variable is not None and variable in emphatic
    if head == "unblocked":
        return variable is not None and variable in verbalized
    return variable is None or variable not in verbalized  # blocked


def oracle_selection(process_text: str, um_types: set, frame: dict, scheme, form):
    """``(process type, participants)`` of the form, or the error type the
    selection must raise."""
    first: dict[str, str] = {}
    for variable, role in frame.items():
        first.setdefault(role.label, variable)
    emphatic = {v for v in frame if scheme.variable_site(v)[0] in form.emphasis.emphatic}
    verbalized = {v for v, r in realization_key(form.realization) if r != "blocked"}
    terms = sexpr.read_all(process_text)
    matched = [t[1] for t in terms
               if t[0] == "process-rule" and _holds(t[2], first, emphatic, verbalized)]
    if not matched:
        return UnclassifiedFormError
    if len(matched) > 1:
        return OverlappingRulesError
    if matched[0] not in um_types:
        return UnclassifiedFormError
    filled = []
    for um_role, *labels in (t[1:] for t in terms if t[0] == "role-map"):
        variable = next((first[l] for l in labels if first.get(l) in verbalized), None)
        if variable is not None:
            filled.append((um_role, variable))
    if len({v for _, v in filled}) != len(filled):
        return AmbiguousProcessError
    return matched[0], tuple(filled)


# ---------------------------------------------------------------------------
# Random bundles as data files


def _role(role) -> list:
    return [role.label, role.anchor]


def _bundle_texts(rng: random.Random):
    """The field, its case frame by the oracle's fold, and the texts of the
    field, rule, oblique, case and process files."""
    scheme = random_scheme(rng)
    field = random_field(rng, scheme)
    table = random_table(rng, scheme)
    frame = case_frame_oracle(scheme, table)
    oblique = random_oblique(rng, frame)
    priority = random_priority(rng)
    rules = ([["init", p, position, _role(r)] for (p, position), r in table.initial.items()]
             + [["modify", p, polarity, _role(a), _role(b)]
                for (p, polarity, a), b in table.modifiers.items()]
             + [["flip", p] for p in sorted(table.flips)]
             + [["identity", p] for p in sorted(table.identities)])
    obliques = [["oblique", _role(role), QuotedString(preposition), case.value]
                for role, (preposition, case) in oblique.entries.items()]
    orders = [["nominative-order", *priority.nominative], ["dative-order", *priority.dative],
              ["accusative-order", *priority.accusative]]
    texts = {
        "field_path": print_field(field),
        "rules_path": "\n".join(map(sexpr.write, rules)),
        "oblique_path": "\n".join(map(sexpr.write, obliques)),
        "cases_path": "\n".join(map(sexpr.write, orders)),
        "process_path": random_process_text(rng, list({r.label for r in frame.values()})),
        "lexicon_path": "",
    }
    return field, frame, texts


def _write_bundle(directory, texts: dict) -> Config:
    config = Config.default()
    for attribute, text in texts.items():
        path = directory / attribute
        path.write_text(text, encoding="utf-8")
        setattr(config, attribute, path)
    return config


def _outcome(selection):
    if isinstance(selection, Exception):
        return type(selection)
    return selection.um_type, selection.participants


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1))
def test_every_atlas_selection_is_the_oracles(tmp_path, seed):
    rng = random.Random(seed)
    field, frame, texts = _bundle_texts(rng)
    config = _write_bundle(tmp_path, texts)
    um_types = {t[1] for t in sexpr.read_all(read_data(config.um_path))}
    bundle = load_bundle(config)
    overlapping = set()
    for form, selection in atlas_of(bundle).values():
        expected = oracle_selection(texts["process_path"], um_types, frame, field.scheme, form)
        assert _outcome(selection) == expected, pattern_text(form.emphasis, form.blocking)
        if expected is OverlappingRulesError:
            overlapping.add(pattern_text(form.emphasis, form.blocking))

    # check claims disjoint rules only when the oracle finds no overlap, and
    # names each form on which it finds one
    out = io.StringIO()
    flags = [(f.flag, str(tmp_path / f.attribute)) for f in DATA_FILES if f.attribute in texts]
    with contextlib.redirect_stdout(out):
        cli.main(["check", *(arg for flag in flags for arg in flag)])
    lines = out.getvalue().splitlines()
    named = [line[line.index(" (emphasis ") + 1:] for line in lines
             if line.startswith("problem: process-type rules are not disjoint: ")]
    assert ("process rules: disjoint over the atlas" in lines) == (not overlapping)
    assert sorted(named) == sorted(overlapping)
