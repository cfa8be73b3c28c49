"""Shared fixtures: the default bundle and the four golden patterns."""

from __future__ import annotations

import pytest

from emphase.emphasis import BlockingSet, EmphasisAssignment
from emphase.pipeline import Config, load_bundle, load_binding, read_data
from emphase.spl import SplTerm

# Emphasis chains of the change-of-possession scheme.
ACT = frozenset({(0,)})
CHAIN_GET = frozenset({(1,), (1, 0), (1, 0, 0)})
CHAIN_LOSE = frozenset({(1,), (1, 1), (1, 1, 0), (1, 1, 0, 0)})

# The four golden (emphasis, blocking) patterns, keyed by their verbs.
PATTERNS = {
    "verlieren": (
        EmphasisAssignment(CHAIN_LOSE),
        BlockingSet(frozenset({"a", "a1", "a2"})),
    ),
    "wegwerfen": (
        EmphasisAssignment(ACT | CHAIN_LOSE),
        BlockingSet(frozenset({"a1", "a2", "a3"})),
    ),
    "schicken-dative": (
        EmphasisAssignment(ACT | CHAIN_GET),
        BlockingSet(frozenset({"a3", "a4"})),
    ),
    "schicken-oblique": (
        EmphasisAssignment(ACT | CHAIN_LOSE),
        BlockingSet(frozenset({"a2", "a3"})),
    ),
}


@pytest.fixture(scope="session")
def bundle():
    return load_bundle(Config.default())


@pytest.fixture(scope="session")
def field(bundle):
    return bundle.field


@pytest.fixture(scope="session")
def frame(bundle):
    return bundle.case_frame


@pytest.fixture(scope="session")
def atlas(bundle):
    return bundle.enumerate_forms()


@pytest.fixture(scope="session")
def forms_by_pattern(atlas):
    return {(form.emphasis, form.blocking): form for form in atlas.forms}


@pytest.fixture(scope="session")
def golden_forms(forms_by_pattern):
    """The four golden semantic forms, keyed like PATTERNS."""
    return {name: forms_by_pattern[pattern] for name, pattern in PATTERNS.items()}


def _load_binding(bundle, name):
    config = Config.default()
    path = config.field_path.parent.parent / "bindings" / name
    return load_binding(bundle, read_data(path))


@pytest.fixture(scope="session")
def binding_send(bundle):
    return _load_binding(bundle, "he-him-invitation.binding")


@pytest.fixture(scope="session")
def binding_key(bundle):
    return _load_binding(bundle, "she-key.binding")


@pytest.fixture(scope="session")
def script_path():
    config = Config.default()
    return config.field_path.parent.parent / "discourse" / "biography.script"


def atlas_of(bundle) -> dict:
    """Each enumerated form by its pattern, in canonical order, with the
    outcome ``bundle.selection`` returns for it."""
    return {(form.emphasis, form.blocking): (form, bundle.selection(form))
            for form in bundle.enumerate_forms().forms}


def verb_entry(bundle, lemma, pattern_name=None):
    entries = [e for e in bundle.verbs if e.lemma == lemma]
    if pattern_name is None:
        assert len(entries) == 1
        return entries[0]
    emphasis, blocking = PATTERNS[pattern_name]
    for entry in entries:
        if entry.emphasis == emphasis and entry.blocking == blocking:
            return entry
    raise AssertionError(f"no entry for {lemma} with pattern {pattern_name}")


def plan_list(term) -> list:
    """A plan term as the nested list ``sexpr.write`` writes, the reference
    for ``serialize_spl``."""
    out: list = [term.head, "/", term.um_type]
    for keyword, filler in term.slots:
        out += [keyword, plan_list(filler) if isinstance(filler, SplTerm) else filler]
    return out
