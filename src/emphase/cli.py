"""Command-line interface: ``emphase <command>``.

Commands: ``frame`` (print the maximum case frame), ``forms`` (the
semantic-form atlas), ``spl`` / ``realize`` / ``generate`` (plan term,
sentence, or both for one verb and binding), ``plan`` (walk a
discourse script), ``check`` (validate a data bundle).  All data paths
default to the shipped change-of-possession bundle.

Exit codes: 0 success, 1 input error, 2 rule gap (missing role rule,
unclassified form, missing oblique entry or morphology).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import sexpr
from .discourse import (
    EMPTY_STATE,
    EmphasisQ,
    decide_emphasis_q,
    parse_script,
    run_script,
    status_of,
    update_discourse,
)
from .emphasis import DirectCase, Oblique, SemanticForm
from .errors import EmphaseError, InputError, RuleGapError, UnclassifiedFormError
from .lexicon import match_verbs
from .pipeline import (
    Bundle,
    Config,
    check_bundle,
    generate,
    load_binding,
    load_bundle,
    read_data,
)
from .sexpr import QuotedString
from .spl import serialize_spl

_DATA_OPTIONS = (
    ("--field", "field_path", "field definition file"),
    ("--rules", "rules_path", "role-rule table"),
    ("--oblique", "oblique_path", "oblique (preposition) table"),
    ("--cases", "cases_path", "direct-case priority table"),
    ("--process", "process_path", "process-type rules and role maps"),
    ("--um", "um_path", "upper-model fragment"),
    ("--lexicon", "lexicon_path", "verb lexicon"),
    ("--np", "np_path", "NP lexicon"),
    ("--morph", "morph_path", "determiner/pronoun morphology"),
)


@contextmanager
def _stage(name: str):
    try:
        yield
    except EmphaseError as err:
        if err.stage is None:
            err.stage = name
        raise


def _data_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for flag, dest, help_text in _DATA_OPTIONS:
        parent.add_argument(flag, dest=dest, metavar="PATH", help=help_text)
    parent.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for humans, structured for parenthesized terms",
    )
    return parent


def _regular_file(value: str) -> Path:
    """The path a flag names, which must be a regular file or a link to
    one: a read from a directory fails and one from a pipe can block."""
    path = Path(value)
    if not path.is_file():
        problem = (
            "is a directory" if path.is_dir()
            else "not a regular file" if path.exists()
            else "dangling symbolic link" if path.is_symlink()
            else "no such file"
        )
        raise InputError(f"cannot read {path}: {problem}")
    return path


def _config_from(args: argparse.Namespace) -> Config:
    config = Config.default()
    for _flag, dest, _help in _DATA_OPTIONS:
        value = getattr(args, dest, None)
        if value is not None:
            setattr(config, dest, _regular_file(value))
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emphase",
        description="Semantic-emphasis rule engine and toy German generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = _data_parent()

    sub.add_parser("frame", parents=[data], help="print the maximum case frame")
    sub.add_parser("forms", parents=[data], help="print the semantic-form atlas")

    for name, help_text in (
        ("spl", "emit the plan term for one verb"),
        ("realize", "emit the sentence for one verb"),
        ("generate", "emit plan term and sentence"),
    ):
        p = sub.add_parser(name, parents=[data], help=help_text)
        p.add_argument("--verb", required=True, help="lemma to generate with")
        p.add_argument("--bindings", required=True, metavar="PATH", help="binding file")
        p.add_argument(
            "--emphasis-q",
            choices=(EmphasisQ.EMPHATIC.value, EmphasisQ.NONEMPHATIC.value),
            help="emphatic status of the recipient (alternative to --script)",
        )
        p.add_argument("--script", metavar="PATH", help="discourse script file")
        p.add_argument(
            "--focus",
            metavar="ROLE",
            help="participant role requested in focus position (e.g. recipient)",
        )

    p = sub.add_parser("plan", parents=[data], help="walk a discourse script")
    p.add_argument("--script", required=True, metavar="PATH")
    p.add_argument("--referent", help="also print the emphasis decision for this referent")

    sub.add_parser("check", parents=[data], help="validate a field/lexicon bundle")
    return parser


# ---------------------------------------------------------------------------
# Rendering helpers


def _realization_term(form: SemanticForm) -> list:
    entries: list = ["cases"]
    for variable, _role in form.case_frame:
        realization = form.realization.of(variable)
        if isinstance(realization, DirectCase):
            entries.append([variable, realization.case.value])
        elif isinstance(realization, Oblique):
            entries.append(
                [
                    variable,
                    ["oblique", QuotedString(realization.preposition), realization.governed.value],
                ]
            )
        else:
            entries.append([variable, "blocked"])
    return entries


def cmd_frame(bundle: Bundle, fmt: str) -> list[str]:
    if fmt == "structured":
        term: list = ["frame"]
        for variable, role in bundle.case_frame.items():
            term.append([variable, [role.label, role.anchor]])
        return [sexpr.write(term)]
    width = max(len(v) for v in bundle.case_frame)
    lines = [f"field: {bundle.field.name}"]
    for variable, role in bundle.case_frame.items():
        lines.append(f"  {variable.ljust(width)}  {role}")
    return lines


def cmd_forms(bundle: Bundle, fmt: str) -> list[str]:
    lines: list[str] = []
    for index, (form, selection) in enumerate(bundle.atlas.values(), start=1):
        verbs = match_verbs(form, bundle.verbs)
        # a form no rule or more than one rule classifies is marked, not fatal
        if isinstance(selection, RuleGapError):
            unclassified = isinstance(selection, UnclassifiedFormError)
            selection = "unclassified" if unclassified else "ambiguous"
        if fmt == "structured":
            term: list = [
                "form",
                ["emphasis"] + [list(p) for p in sorted(form.emphasis.emphatic)],
                ["blocked"] + sorted(form.blocking.blocked),
                _realization_term(form),
                ["verbs"] + [QuotedString(v.lemma) for v in verbs],
            ]
            if isinstance(selection, str):
                term.append(["process", selection])
            else:
                term.append(
                    ["process", selection.um_type]
                    + [[r, v] for r, v in selection.participants]
                )
            lines.append(sexpr.write(term))
        else:
            lines.append(f"form {index}")
            emphatic = " ".join(sexpr.write(list(p)) for p in sorted(form.emphasis.emphatic))
            lines.append(f"  emphasis: {emphatic}")
            blocked = " ".join(sorted(form.blocking.blocked)) or "(none)"
            lines.append(f"  blocked: {blocked}")
            cases = " ".join(
                f"{v}={form.realization.of(v)}" for v, _ in form.case_frame
            )
            lines.append(f"  cases: {cases}")
            lines.append(
                "  verbs: " + (", ".join(v.lemma for v in verbs) or "(none)")
            )
            if isinstance(selection, str):
                lines.append(f"  process: {selection}")
            else:
                participants = " ".join(f"{r}={v}" for r, v in selection.participants)
                lines.append(f"  process: {selection.um_type} [{participants}]")
    enumeration = bundle.enumerate_forms()
    if fmt == "structured":
        lines.append(sexpr.write(["count", len(enumeration.forms)]))
    else:
        lines.append(
            f"{len(enumeration.forms)} forms "
            f"({enumeration.rejected_assignment} pairs rejected by case assignment)"
        )
    return lines


def _run_generation(args: argparse.Namespace, bundle: Bundle):
    with _stage("binding"):
        binding = load_binding(bundle, read_data(_regular_file(args.bindings)))
    if args.script and args.emphasis_q:
        raise InputError("give --emphasis-q or --script, not both")
    state = None
    if args.script:
        with _stage("plan"):
            state = run_script(parse_script(read_data(_regular_file(args.script))))
    emphasis_q = EmphasisQ(args.emphasis_q) if args.emphasis_q else None
    with _stage("generate"):
        result = generate(
            bundle,
            args.verb,
            binding,
            emphasis_q=emphasis_q,
            script_state=state,
            focus_role=args.focus,
        )
    return result, serialize_spl(result.plan)


def cmd_generate(args: argparse.Namespace, bundle: Bundle, parts: str) -> list[str]:
    result, plan_text = _run_generation(args, bundle)
    if args.format == "structured":
        term: list = ["generated", ["verb", QuotedString(result.verb.lemma)]]
        if parts in ("spl", "both"):
            term.append(["plan", sexpr.read(plan_text)])
        if parts in ("sentence", "both"):
            term.append(["sentence", QuotedString(result.sentence)])
        return [sexpr.write(term)]
    lines = []
    if parts in ("spl", "both"):
        lines.append(plan_text)
    if parts in ("sentence", "both"):
        lines.append(result.sentence)
    return lines


def cmd_plan(args: argparse.Namespace) -> list[str]:
    updates = parse_script(read_data(_regular_file(args.script)))
    lines: list[str] = []
    structured = args.format == "structured"
    state = EMPTY_STATE
    for i, update in enumerate(updates, start=1):
        state = update_discourse(state, update.mentions, update.hypertheme)
        if not structured:
            mention_text = " ".join(update.mentions) or "(none)"
            line = f"sentence {i}: mentions {mention_text}"
            if update.hypertheme:
                line += f"; hypertheme {update.hypertheme}"
            lines.append(line)
    if structured:
        term: list = [
            "plan-state",
            ["index", state.sentence_index],
            ["mentioned"] + sorted(state.mentioned),
        ]
        if state.hypertheme:
            term.append(["hypertheme", state.hypertheme])
        lines.append(sexpr.write(term))
        for referent in sorted(state.mentioned):
            status = status_of(state, referent)
            status_term = ["status", referent, status.givenness]
            if status.is_hypertheme:
                status_term.append("hypertheme")
            lines.append(sexpr.write(status_term))
    else:
        mentioned = " ".join(sorted(state.mentioned)) or "(none)"
        hypertheme = state.hypertheme or "(none)"
        lines.append(
            f"state: {state.sentence_index} sentences; mentioned {mentioned}; "
            f"hypertheme {hypertheme}"
        )
    if args.referent is not None:
        # the names a script's (mentions ...) can hold: bare symbols
        try:
            referent = sexpr.write(args.referent)
        except ValueError:
            raise InputError(
                f"--referent must be a bare symbol, got {args.referent!r}"
            ) from None
        decision = decide_emphasis_q(status_of(state, referent))
        if structured:
            lines.append(sexpr.write(["emphasis-q", referent, decision.value]))
        else:
            lines.append(f"emphasis-q({referent}): {decision.value}")
    return lines


def cmd_check(bundle: Bundle) -> tuple[list[str], int]:
    report = check_bundle(bundle)
    lines = list(report.lines)
    for problem in report.input_problems + report.rule_gaps:
        lines.append(f"problem: {problem}")
    if report.ok:
        lines.append("ok")
        return lines, 0
    return lines, 2 if report.rule_gaps else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            with _stage("plan"):
                print("\n".join(cmd_plan(args)))
            return 0
        with _stage("load"):
            bundle = load_bundle(_config_from(args))
        if args.command == "frame":
            with _stage("frame"):
                lines = cmd_frame(bundle, args.format)
        elif args.command == "forms":
            with _stage("forms"):
                lines = cmd_forms(bundle, args.format)
        elif args.command == "check":
            with _stage("check"):
                lines, code = cmd_check(bundle)
            print("\n".join(lines))
            return code
        else:
            with _stage("load"):
                bundle.load_all()
            parts = {"spl": "spl", "realize": "sentence"}.get(args.command, "both")
            lines = cmd_generate(args, bundle, parts)
        print("\n".join(lines))
        return 0
    except EmphaseError as err:
        where = f" [{err.stage}]" if err.stage else ""
        print(f"emphase: error{where}: {err}", file=sys.stderr)
        return err.exit_code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
