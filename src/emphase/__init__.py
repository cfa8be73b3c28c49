"""Semantic-emphasis rule engine and toy German sentence generator.

From a declarative lexical-field definition the engine derives the
maximum case frame, enumerates emphasis distributions and blocking
sets, assigns grammatical cases, selects an upper-model process type,
emits sentence-plan terms, and realizes small German sentences through
a fixed verb-second template.  All rule content lives in data files;
the shipped bundle covers the change-of-possession field.
"""

from .discourse import EmphasisQ, decide_emphasis_q, status_of, update_discourse
from .emphasis import enumerate_emphasis, enumerate_semantic_forms
from .errors import EmphaseError, InputError, RuleGapError
from .lexicon import match_verbs, select_process_type
from .pipeline import Config, generate, load_bundle
from .realize import realize
from .roles import derive_case_frame
from .scheme import parse_field, print_field
from .spl import build_spl, parse_spl, serialize_spl

__version__ = "0.1.0"

# exactly the names README "Library use" documents
__all__ = [
    "Config",
    "EmphaseError",
    "EmphasisQ",
    "InputError",
    "RuleGapError",
    "build_spl",
    "decide_emphasis_q",
    "derive_case_frame",
    "enumerate_emphasis",
    "enumerate_semantic_forms",
    "generate",
    "load_bundle",
    "match_verbs",
    "parse_field",
    "parse_spl",
    "print_field",
    "realize",
    "select_process_type",
    "serialize_spl",
    "status_of",
    "update_discourse",
]
