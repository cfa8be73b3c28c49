"""Data-bundle loading and the end-to-end generation pipeline.

A bundle is everything one lexical field needs: the field definition,
role rules, oblique/case-priority tables, process rules, upper-model
fragment, verb lexicon, NP lexicon, and morphology.  The default
configuration points at the shipped change-of-possession data, so the
CLI works out of the box.

``generate`` drives the full pipeline for one verb: pick the frame that
realizes the emphasis-q (from an explicit emphatic/nonemphatic request
or from a discourse script, not both; with none, the lemma's only
frame), classify the form, emit the plan term, and realize the sentence.
"""

from contextlib import contextmanager
from functools import cached_property
from importlib import resources
from importlib.abc import Traversable
from pathlib import Path
from typing import NamedTuple

from .discourse import DiscourseState, EmphasisQ, decide_emphasis_q, status_of
from .emphasis import (
    Case,
    CasePriority,
    DirectCase,
    FormEnumeration,
    Oblique,
    ObliqueTable,
    SemanticForm,
    enumerate_semantic_forms,
    parse_case_priority,
    parse_oblique_table,
    pattern_text,
    semantic_form,
)
from .errors import (
    BlockedOutError,
    EmphaseError,
    FocusConflictError,
    InputError,
    OverlappingRulesError,
    RuleGapError,
    SelectionError,
)
from .lexicon import (
    ProcessRule,
    ProcessSelection,
    RoleMapRule,
    UpperModel,
    VerbEntry,
    parse_lexicon,
    parse_process_rules,
    parse_upper_model,
    participants,
    select_process_type,
)
from .realize import (
    MorphTable,
    NounPhrases,
    NPLexicon,
    fill_template,
    parse_morph_table,
    parse_np_lexicon,
)
from .roles import (
    CaseFrame,
    RoleRuleTable,
    derive_case_frame,
    missing_rules,
    parse_rule_table,
)
from .scheme import (
    Binding,
    FieldDefinition,
    complete_binding,
    parse_binding,
    parse_field,
    validate_binding,
)
from .spl import RECIPIENT_ROLE, SplTerm, build_spl

# package data resolves to real files; CLI overrides are plain paths
DataPath = Path | Traversable


class Frame(NamedTuple):
    """A lexicon entry, the form it lexicalizes, its recipient variable, and
    the emphasis-q it realizes (EMPHATIC by dative, NONEMPHATIC by oblique,
    else None)."""

    entry: VerbEntry
    form: SemanticForm
    recipient: str | None
    emphasis_q: EmphasisQ | None


class DataFile(NamedTuple):
    """A data file: ``Config`` attribute, CLI flag, shipped file under ``data/``, help."""

    attribute: str
    flag: str
    shipped: str
    help: str


DATA_FILES = (
    DataFile("field_path", "--field", "fields/change-of-possession.field",
             "field definition file"),
    DataFile("rules_path", "--rules", "rules/change-of-possession.rules", "role-rule table"),
    DataFile("oblique_path", "--oblique", "rules/change-of-possession.oblique",
             "oblique (preposition) table"),
    DataFile("cases_path", "--cases", "rules/change-of-possession.cases",
             "direct-case priority table"),
    DataFile("process_path", "--process", "rules/change-of-possession.process",
             "process-type rules and role maps"),
    DataFile("um_path", "--um", "upper-model.um", "upper-model fragment"),
    DataFile("lexicon_path", "--lexicon", "lexicon/change-of-possession.lex", "verb lexicon"),
    DataFile("np_path", "--np", "lexicon/nps.lex", "NP lexicon"),
    DataFile("morph_path", "--morph", "lexicon/morphology.lex",
             "determiner/pronoun morphology"),
)


class Config:
    """Paths of the nine ``DATA_FILES``, by attribute: the one mutable
    record, so that a caller can point any of them elsewhere."""

    def __init__(self, **paths: DataPath):
        if paths.keys() != {f.attribute for f in DATA_FILES}:
            raise TypeError(f"Config takes exactly the DATA_FILES attributes, got {sorted(paths)}")
        vars(self).update(paths)

    @classmethod
    def default(cls) -> "Config":
        data = resources.files(__package__) / "data"
        return cls(**{f.attribute: data / f.shipped for f in DATA_FILES})


@contextmanager
def staged(name: str):
    """Name ``name`` as the stage of an engine error raised inside, unless
    a step nested in it has named its own; also usable as a decorator."""
    try:
        yield
    except EmphaseError as err:
        if err.stage is None:
            err.stage = name
        raise


def path_text(path: DataPath) -> str:
    """A path as a one-line error writes it: quoted if it is not printable."""
    text = str(path)
    return text if text.isprintable() else repr(text)


def read_data(path: DataPath) -> str:
    """The text of a file; a failed read is an ``InputError``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err  # no strerror on a decode error
        raise InputError(f"cannot read {path_text(path)}: {reason}") from None


class Bundle:
    """Lazily parsed data bundle.

    Each piece is read and validated on first use, so a command that
    only needs the case frame never parses the lexicon, and overriding
    one file does not force the others to stay coherent with it.
    The enumeration, the frames of a lemma, the process selection of a
    key, rule gap or not, and the noun phrase of a referent in a case
    (``noun_phrases``) are derived on first request and kept; a failed
    derivation of any other kind is not.
    """

    def __init__(self, config: Config):
        self.config = config
        self._frames: dict[str, list[Frame]] = {}
        self._selections: dict[tuple, ProcessSelection | SelectionError] = {}

    @staticmethod
    @staged("load")
    def _parse(parse, path: DataPath, *context):
        """Read and parse one data file of the bundle: a fault in either is
        a ``load`` fault, whichever command first needs the file."""
        return parse(read_data(path), *context)

    @cached_property
    def field(self) -> FieldDefinition:
        return self._parse(parse_field, self.config.field_path)

    @cached_property
    def rule_table(self) -> RoleRuleTable:
        return self._parse(parse_rule_table, self.config.rules_path)

    @cached_property
    @staged("frame")
    def case_frame(self) -> CaseFrame:
        return derive_case_frame(self.field.scheme, self.rule_table)

    @cached_property
    def oblique_table(self) -> ObliqueTable:
        return self._parse(parse_oblique_table, self.config.oblique_path)

    @cached_property
    def priority(self) -> CasePriority:
        return self._parse(parse_case_priority, self.config.cases_path)

    @cached_property
    def _process(self) -> tuple[list[ProcessRule], list[RoleMapRule]]:
        return self._parse(parse_process_rules, self.config.process_path)

    @property
    def process_rules(self) -> list[ProcessRule]:
        return self._process[0]

    @property
    def role_maps(self) -> list[RoleMapRule]:
        return self._process[1]

    @cached_property
    def upper_model(self) -> UpperModel:
        return self._parse(parse_upper_model, self.config.um_path)

    @cached_property
    def verbs(self) -> list[VerbEntry]:
        return self._parse(parse_lexicon, self.config.lexicon_path, self.field)

    @cached_property
    def np_lexicon(self) -> NPLexicon:
        return self._parse(parse_np_lexicon, self.config.np_path)

    @cached_property
    def morph_table(self) -> MorphTable:
        return self._parse(parse_morph_table, self.config.morph_path)

    @cached_property
    def noun_phrases(self) -> NounPhrases:
        return NounPhrases(self.np_lexicon, self.morph_table)

    def load_all(self) -> "Bundle":
        for piece in (
            "field", "rule_table", "case_frame", "oblique_table", "priority",
            "_process", "upper_model", "verbs", "np_lexicon", "morph_table",
        ):
            getattr(self, piece)
        return self

    @cached_property
    def _enumeration(self) -> FormEnumeration:
        return enumerate_semantic_forms(
            self.field, self.case_frame, self.oblique_table, self.priority
        )

    def enumerate_forms(self) -> FormEnumeration:
        return self._enumeration

    def frames(self, lemma: str) -> list[Frame]:
        """The frame of each lexicon entry of ``lemma``."""
        frames = self._frames.get(lemma)
        if frames is None:
            entries = [e for e in self.verbs if e.lemma == lemma]
            if not entries:
                raise InputError(f"no lexicon entry for verb {lemma!r}")
            frames = [frame_for_entry(self, e) for e in entries]
            self._frames[lemma] = frames
        return frames

    def selection(self, form: SemanticForm) -> ProcessSelection | SelectionError:
        """Process type and participants of ``form``, or the error selecting
        them, classified once per ``form.selection_key``: an error is a new
        one for each form, naming that form's pattern if the key's names one."""
        key = form.selection_key
        outcome = self._selections.get(key)
        if outcome is None:
            try:
                outcome = select_process_type(
                    form, self.process_rules, self.role_maps, self.upper_model
                )
            except SelectionError as err:
                outcome = err.with_traceback(None)  # kept, so without this bundle's frames
            self._selections[key] = outcome
        if isinstance(outcome, SelectionError):
            pattern = None if outcome.pattern is None else (form.emphasis, form.blocking)
            return type(outcome)(outcome.args[0], pattern)
        return outcome


def load_bundle(config: Config) -> Bundle:
    """Bundle over the config; pieces parse lazily on first use."""
    return Bundle(config)


def load_binding(bundle: Bundle, text: str) -> Binding:
    """Parse, complete, and validate a binding against the field."""
    binding = parse_binding(text)
    violations = validate_binding(bundle.field, binding)
    if violations:
        raise InputError(
            "binding rejected: " + "; ".join(str(v) for v in violations)
        )
    return complete_binding(bundle.field, binding)


def form_for_entry(bundle: Bundle, entry: VerbEntry) -> SemanticForm:
    """Semantic form a lexicon entry lexicalizes (``emphasis.semantic_form``)."""
    try:
        return semantic_form(bundle.field, bundle.case_frame, bundle.oblique_table,
                             bundle.priority, entry.emphasis, entry.blocking.blocked)
    except BlockedOutError as err:
        raise BlockedOutError(err.paths, f"verb {entry.lemma!r}") from None


def frame_for_entry(bundle: Bundle, entry: VerbEntry) -> Frame:
    form = form_for_entry(bundle, entry)
    recipient = next(
        (v for role, v in participants(form, bundle.role_maps) if role == RECIPIENT_ROLE), None
    )
    realization = None if recipient is None else form.realization.of(recipient)
    if realization == DirectCase(Case.DATIVE):
        return Frame(entry, form, recipient, EmphasisQ.EMPHATIC)
    emphasis_q = EmphasisQ.NONEMPHATIC if isinstance(realization, Oblique) else None
    return Frame(entry, form, recipient, emphasis_q)


class GenerationResult(NamedTuple):
    verb: VerbEntry
    form: SemanticForm
    selection: ProcessSelection
    plan: SplTerm
    sentence: str
    emphasis_q: EmphasisQ | None


def generate(
    bundle: Bundle,
    lemma: str,
    binding: Binding,
    emphasis_q: EmphasisQ | None = None,
    script_state: DiscourseState | None = None,
    focus_role: str | None = None,
) -> GenerationResult:
    """Run the whole pipeline for one verb and binding; the emphasis-q
    comes from ``emphasis_q`` or from ``script_state``, not both."""
    if emphasis_q is not None and script_state is not None:
        raise InputError("give --emphasis-q or a discourse script, not both")
    if focus_role is not None:
        roles = [rule.um_role for rule in bundle.role_maps]
        if focus_role not in roles:
            raise InputError(
                f"the focus role must be a participant role ({', '.join(roles)}), "
                f"got {focus_role!r}"
            )
    candidates = bundle.frames(lemma)

    effective_q = emphasis_q
    if script_state is not None:
        recipient_referents: list[str] = []
        for frame in candidates:
            referent = None if frame.recipient is None else binding.referent(frame.recipient)
            if referent is not None and referent.name not in recipient_referents:
                recipient_referents.append(referent.name)
        if len(recipient_referents) > 1:
            raise InputError(
                "frames disagree about the recipient referent: "
                + ", ".join(sorted(recipient_referents))
            )
        if recipient_referents:
            effective_q = decide_emphasis_q(status_of(script_state, recipient_referents[0]))
    if focus_role == RECIPIENT_ROLE and effective_q is EmphasisQ.EMPHATIC:
        raise FocusConflictError(
            "an emphatic participant cannot take the focus position, "
            "which is reserved for new, non-thematic information"
        )

    if len(candidates) == 1 and (effective_q is None or candidates[0].emphasis_q is None):
        chosen = candidates[0]  # build_spl refuses an emphasis-q if no recipient is verbalized
    elif effective_q is None:
        raise InputError(
            f"verb {lemma!r} has several frames; decide with --emphasis-q or a discourse script"
        )
    else:
        for chosen in candidates:
            if chosen.emphasis_q is effective_q:
                break
        else:
            raise InputError(
                f"no frame of {lemma!r} realizes the recipient "
                f"{'with dative case' if effective_q is EmphasisQ.EMPHATIC else 'obliquely'}"
            )
    entry, form = chosen.entry, chosen.form

    selection = bundle.selection(form)
    if isinstance(selection, SelectionError):
        raise selection
    plan = build_spl(selection, entry, binding, effective_q)
    sentence = fill_template(form, entry, binding, bundle.noun_phrases, effective_q)
    return GenerationResult(entry, form, selection, plan, sentence, effective_q)


# ---------------------------------------------------------------------------
# Bundle validation (the `check` command)


class CheckReport(NamedTuple):
    """The verified claims, and each problem in the order it is written with
    the exit status of its kind: ``exit_code`` of its error type."""

    lines: list[str]
    problems: list[tuple[str, int]]

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def exit_code(self) -> int:
        return max((code for _, code in self.problems), default=0)


def check_bundle(bundle: Bundle) -> CheckReport:
    """Cross-validate every component of a loaded bundle."""
    lines: list[str] = []
    problems: list[tuple[str, int]] = []  # of the lexicon and the atlas
    rule_gaps: list[tuple[str, int]] = []  # the other rule gaps, written after them

    scheme = bundle.field.scheme
    lines.append(
        f"field {bundle.field.name}: {len(scheme.variables)} variables, "
        f"{len(scheme.paths)} propositions"
    )
    gaps = missing_rules(scheme, bundle.rule_table)
    if gaps:
        # without a derivable frame the atlas and lexicon cannot be checked
        return CheckReport(lines, [(gap, RuleGapError.exit_code) for gap in gaps])
    lines.append("role rules: total for the scheme")

    enumeration = bundle.enumerate_forms()
    lines.append(
        f"semantic forms: {len(enumeration.forms)} "
        f"({enumeration.rejected_assignment} pairs rejected by case assignment)"
    )

    # classified first: a fault in a process file is reported before one in the lexicon
    overlaps = [o for o in map(bundle.selection, enumeration.forms)
                if isinstance(o, OverlappingRulesError)]
    for entry in bundle.verbs:
        name = f"verb {entry.lemma!r} " + pattern_text(entry.emphasis, entry.blocking)
        try:
            form = form_for_entry(bundle, entry)
        except InputError as err:
            problems.append((f"{name}: {err}", err.exit_code))
            continue
        except RuleGapError as err:
            rule_gaps.append((f"{name}: {err}", err.exit_code))
            continue
        if entry.declared_um is None:
            continue
        outcome = bundle.selection(form)
        if isinstance(outcome, SelectionError):  # its message, as name gives the pattern
            problems.append((f"{name}: {outcome.args[0]}", outcome.exit_code))
        elif outcome.um_type != entry.declared_um:
            problems.append((
                f"{name} declares {entry.declared_um} but classifies as {outcome.um_type}",
                InputError.exit_code,
            ))
    if not problems and not rule_gaps:
        lines.append(f"lexicon: {len(bundle.verbs)} entries, patterns distinct")

    problems.extend((str(o), o.exit_code) for o in overlaps)
    if not overlaps:
        lines.append("process rules: disjoint over the atlas")

    morph_gaps = 0
    for referent in bundle.np_lexicon:
        for case in (Case.NOMINATIVE, Case.DATIVE, Case.ACCUSATIVE):
            try:
                bundle.noun_phrases[referent, case]
            except RuleGapError as err:
                morph_gaps += 1
                rule_gaps.append((f"referent {referent}: {err}", err.exit_code))
    if not morph_gaps:
        lines.append("morphology: covers the NP lexicon in nominative/dative/accusative")

    lines.append("upper model: {} types".format(len(bundle.upper_model)))
    return CheckReport(lines, problems + rule_gaps)
