"""Data-bundle loading and the end-to-end generation pipeline.

A bundle is everything one lexical field needs: the field definition,
role rules, oblique/case-priority tables, process rules, upper-model
fragment, verb lexicon, NP lexicon, and morphology.  The default
configuration points at the shipped change-of-possession data, so the
CLI works out of the box.

``generate`` drives the full pipeline for one verb: validate the
binding, pick the frame (directly, by an explicit emphatic/nonemphatic
request, or from a discourse script via the textual planner), classify
the form, emit the plan term, and realize the sentence.
"""

from functools import cached_property
from importlib import resources
from importlib.abc import Traversable
from pathlib import Path
from typing import NamedTuple

from . import sexpr
from .discourse import DiscourseState, EmphasisQ, decide_emphasis_q, status_of
from .emphasis import (
    BlockingSet,
    Case,
    CasePriority,
    DirectCase,
    EmphasisAssignment,
    FormEnumeration,
    Oblique,
    ObliqueTable,
    SemanticForm,
    assign_cases,
    check_blocking,
    emphatic_variables,
    enumerate_semantic_forms,
    parse_case_priority,
    parse_oblique_table,
)
from .errors import (
    FocusConflictError,
    InputError,
    OverlappingRulesError,
    RuleGapError,
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
    NPLexicon,
    inflect_np,
    np_spec_for,
    parse_morph_table,
    parse_np_lexicon,
    realize,
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

Pattern = tuple[EmphasisAssignment, BlockingSet]
# a lexicon entry, the form it lexicalizes, and the form's recipient variable
Frame = tuple[VerbEntry, SemanticForm, str | None]


class Config:
    """Paths of the nine data files: the one mutable record, so that a
    caller can point any of them elsewhere."""

    def __init__(
        self, field_path: DataPath, rules_path: DataPath, oblique_path: DataPath,
        cases_path: DataPath, process_path: DataPath, um_path: DataPath,
        lexicon_path: DataPath, np_path: DataPath, morph_path: DataPath,
    ):
        self.field_path = field_path
        self.rules_path = rules_path
        self.oblique_path = oblique_path
        self.cases_path = cases_path
        self.process_path = process_path
        self.um_path = um_path
        self.lexicon_path = lexicon_path
        self.np_path = np_path
        self.morph_path = morph_path

    @classmethod
    def default(cls) -> "Config":
        data = resources.files(__package__) / "data"
        return cls(
            field_path=data / "fields" / "change-of-possession.field",
            rules_path=data / "rules" / "change-of-possession.rules",
            oblique_path=data / "rules" / "change-of-possession.oblique",
            cases_path=data / "rules" / "change-of-possession.cases",
            process_path=data / "rules" / "change-of-possession.process",
            um_path=data / "upper-model.um",
            lexicon_path=data / "lexicon" / "change-of-possession.lex",
            np_path=data / "lexicon" / "nps.lex",
            morph_path=data / "lexicon" / "morphology.lex",
        )


def read_data(path: DataPath, stage: str | None = None) -> str:
    """The text of a file.  A failed read is an ``InputError`` of ``stage``
    when one is given (a data file of the bundle fails ``load``, whichever
    command first needs it), else of the stage that reads the file."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err  # no strerror on a decode error
        failure = InputError(f"cannot read {path}: {reason}")
        failure.stage = stage
        raise failure from None


class Bundle:
    """Lazily parsed data bundle.

    Each piece is read and validated on first use, so a command that
    only needs the case frame never parses the lexicon, and overriding
    one file does not force the others to stay coherent with it.
    The enumeration, the frames of a lemma and the process selection of
    a pattern are derived on first request and kept; a failed
    derivation is not.
    """

    def __init__(self, config: Config):
        self.config = config
        self._frames: dict[str, list[Frame]] = {}
        self._selections: dict[Pattern, ProcessSelection] = {}

    @cached_property
    def field(self) -> FieldDefinition:
        return parse_field(read_data(self.config.field_path, "load"))

    @cached_property
    def rule_table(self) -> RoleRuleTable:
        return parse_rule_table(read_data(self.config.rules_path, "load"))

    @cached_property
    def case_frame(self) -> CaseFrame:
        return derive_case_frame(self.field.scheme, self.rule_table)

    @cached_property
    def oblique_table(self) -> ObliqueTable:
        return parse_oblique_table(read_data(self.config.oblique_path, "load"))

    @cached_property
    def priority(self) -> CasePriority:
        return parse_case_priority(read_data(self.config.cases_path, "load"))

    @cached_property
    def _process(self) -> tuple[list[ProcessRule], list[RoleMapRule]]:
        return parse_process_rules(read_data(self.config.process_path, "load"))

    @property
    def process_rules(self) -> list[ProcessRule]:
        return self._process[0]

    @property
    def role_maps(self) -> list[RoleMapRule]:
        return self._process[1]

    @cached_property
    def upper_model(self) -> UpperModel:
        return parse_upper_model(read_data(self.config.um_path, "load"))

    @cached_property
    def verbs(self) -> list[VerbEntry]:
        return parse_lexicon(read_data(self.config.lexicon_path, "load"), self.field)

    @cached_property
    def np_lexicon(self) -> NPLexicon:
        return parse_np_lexicon(read_data(self.config.np_path, "load"))

    @cached_property
    def morph_table(self) -> MorphTable:
        return parse_morph_table(read_data(self.config.morph_path, "load"))

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

    @cached_property
    def atlas(self) -> dict[Pattern, tuple[SemanticForm, ProcessSelection | RuleGapError]]:
        """Each form of the enumeration by its pattern, in canonical order,
        with its process selection or the rule gap selecting it raised."""
        atlas = {}
        for form in self.enumerate_forms().forms:
            try:
                outcome = self.selection(form)
            except RuleGapError as err:
                # without its traceback, whose frames would hold this bundle
                outcome = err.with_traceback(None)
            atlas[form.emphasis, form.blocking] = (form, outcome)
        return atlas

    def frames(self, lemma: str) -> list[Frame]:
        """Each lexicon entry of ``lemma`` with the form it lexicalizes and
        that form's recipient variable."""
        frames = self._frames.get(lemma)
        if frames is None:
            entries = [e for e in self.verbs if e.lemma == lemma]
            if not entries:
                raise InputError(f"no lexicon entry for verb {lemma!r}")
            forms = [(e, form_for_entry(self, e)) for e in entries]
            frames = [(e, f, recipient_variable(f, self.role_maps)) for e, f in forms]
            self._frames[lemma] = frames
        return frames

    def selection(self, form: SemanticForm) -> ProcessSelection:
        """Process type and participants of ``form``."""
        pattern = (form.emphasis, form.blocking)
        selection = self._selections.get(pattern)
        if selection is None:
            selection = select_process_type(
                form, self.process_rules, self.role_maps, self.upper_model
            )
            self._selections[pattern] = selection
        return selection


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
    """Semantic form a lexicon entry lexicalizes."""
    scheme = bundle.field.scheme
    offending = check_blocking(scheme, entry.emphasis, entry.blocking)
    if offending:
        raise InputError(
            f"verb {entry.lemma!r} blocks every argument of emphatic "
            f"proposition(s) {[list(p) for p in offending]}"
        )
    emphatic = emphatic_variables(scheme, entry.emphasis)
    realization = assign_cases(
        bundle.case_frame, emphatic, entry.blocking, bundle.oblique_table, bundle.priority
    )
    return SemanticForm(
        field_name=bundle.field.name,
        emphasis=entry.emphasis,
        blocking=entry.blocking,
        realization=realization,
        case_frame=tuple(bundle.case_frame.items()),
        emphatic_variables=emphatic,
    )


def recipient_variable(form: SemanticForm, role_maps: list[RoleMapRule]) -> str | None:
    return next((v for role, v in participants(form, role_maps) if role == RECIPIENT_ROLE), None)


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
    """Run the whole pipeline for one verb and binding."""
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
        recipient_referents = {
            binding.referent(var).name
            for _, _, var in candidates
            if var is not None and binding.referent(var) is not None
        }
        if recipient_referents:
            if len(recipient_referents) > 1:
                raise InputError(
                    "frames disagree about the recipient referent: "
                    + ", ".join(sorted(recipient_referents))
                )
            status = status_of(
                script_state,
                next(iter(recipient_referents)),
                in_focus=focus_role == RECIPIENT_ROLE,
            )
            effective_q = decide_emphasis_q(status)
        else:
            effective_q = None
    elif effective_q is EmphasisQ.EMPHATIC and focus_role == RECIPIENT_ROLE:
        raise FocusConflictError(
            "an emphatic participant cannot take the focus position, "
            "which is reserved for new, non-thematic information"
        )

    if len(candidates) == 1:
        entry, form, _ = candidates[0]
    else:
        if effective_q is None:
            raise InputError(
                f"verb {lemma!r} has several frames; decide with "
                "--emphasis-q or a discourse script"
            )
        chosen = None
        for e, form, var in candidates:
            if var is None:
                continue
            realization = form.realization.of(var)
            if effective_q is EmphasisQ.EMPHATIC and (
                isinstance(realization, DirectCase) and realization.case is Case.DATIVE
            ):
                chosen = (e, form)
                break
            if effective_q is EmphasisQ.NONEMPHATIC and isinstance(realization, Oblique):
                chosen = (e, form)
                break
        if chosen is None:
            raise InputError(
                f"no frame of {lemma!r} realizes the recipient "
                f"{'with dative case' if effective_q is EmphasisQ.EMPHATIC else 'obliquely'}"
            )
        entry, form = chosen

    selection = bundle.selection(form)
    plan = build_spl(form, selection, entry, binding, effective_q)
    sentence = realize(
        form, entry, binding, bundle.np_lexicon, bundle.morph_table, effective_q
    )
    return GenerationResult(entry, form, selection, plan, sentence, effective_q)


# ---------------------------------------------------------------------------
# Bundle validation (the `check` command)


class CheckReport(NamedTuple):
    lines: list[str]
    input_problems: list[str]
    rule_gaps: list[str]

    @property
    def ok(self) -> bool:
        return not self.input_problems and not self.rule_gaps


def check_bundle(bundle: Bundle) -> CheckReport:
    """Cross-validate every component of a loaded bundle."""
    lines: list[str] = []
    input_problems: list[str] = []
    rule_gaps: list[str] = []

    scheme = bundle.field.scheme
    lines.append(
        f"field {bundle.field.name}: {len(scheme.variables)} variables, "
        f"{len(scheme.paths)} propositions"
    )
    gaps = missing_rules(scheme, bundle.rule_table)
    if gaps:
        # without a derivable frame the atlas and lexicon cannot be checked
        rule_gaps.extend(gaps)
        return CheckReport(lines, input_problems, rule_gaps)
    lines.append("role rules: total for the scheme")

    enumeration = bundle.enumerate_forms()
    lines.append(
        f"semantic forms: {len(enumeration.forms)} "
        f"({enumeration.rejected_assignment} pairs rejected by case assignment)"
    )

    atlas = bundle.atlas
    for entry in bundle.verbs:
        pattern = (
            ["emphasis"] + [list(p) for p in sorted(entry.emphasis.emphatic)],
            ["blocked"] + sorted("?" + v for v in entry.blocking.blocked),
        )
        name = f"verb {entry.lemma!r} " + " ".join(map(sexpr.write, pattern))
        _, outcome = atlas.get((entry.emphasis, entry.blocking), (None, None))
        if outcome is None:
            input_problems.append(f"{name} names a pattern outside the atlas")
        elif entry.declared_um is None:
            continue
        elif isinstance(outcome, RuleGapError):
            input_problems.append(f"{name}: {outcome}")
        elif outcome.um_type != entry.declared_um:
            input_problems.append(
                f"{name} declares {entry.declared_um} but classifies as {outcome.um_type}"
            )
    if not input_problems:
        lines.append(f"lexicon: {len(bundle.verbs)} entries, patterns distinct")

    overlaps = [str(o) for _, o in atlas.values() if isinstance(o, OverlappingRulesError)]
    input_problems.extend(overlaps)
    if not overlaps:
        lines.append("process rules: disjoint over the atlas")

    morph_gaps = 0
    for referent in bundle.np_lexicon:
        for case in (Case.NOMINATIVE, Case.DATIVE, Case.ACCUSATIVE):
            try:
                inflect_np(np_spec_for(referent, case, bundle.np_lexicon), bundle.morph_table)
            except RuleGapError as err:
                morph_gaps += 1
                rule_gaps.append(str(err))
    if not morph_gaps:
        lines.append("morphology: covers the NP lexicon in nominative/dative/accusative")

    lines.append("upper model: {} types".format(len(bundle.upper_model.parents)))
    return CheckReport(lines, input_problems, rule_gaps)
