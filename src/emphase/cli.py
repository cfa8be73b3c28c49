"""Command-line interface: ``emphase <command>``.

Commands: ``frame`` (print the maximum case frame), ``forms`` (the
semantic-form atlas), ``spl`` / ``realize`` / ``generate`` (plan term,
sentence, or both for one verb and binding), ``plan`` (walk a
discourse script), ``check`` (validate a data bundle).  All data paths
default to the shipped change-of-possession bundle.

Exit codes: 0 success, 1 input error, 2 rule gap (missing role rule,
unclassified form, missing oblique entry or morphology).
"""

import argparse
import sys
from functools import cache
from pathlib import Path

from . import sexpr
from .discourse import EmphasisQ, decide_emphasis_q, parse_script, run_script, status_of
from .emphasis import DirectCase, Oblique, RoleRealization
from .errors import EmphaseError, InputError, SelectionError, UnclassifiedFormError
from .lexicon import ProcessSelection, match_verbs
from .pipeline import (
    DATA_FILES,
    Bundle,
    Config,
    check_bundle,
    generate,
    load_binding,
    load_bundle,
    path_text,
    read_data,
    staged,
)
from .sexpr import QuotedString
from .spl import serialize_spl


def _data_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for f in DATA_FILES:
        parent.add_argument(f.flag, dest=f.attribute, metavar="PATH", help=f.help)
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
        raise InputError(f"cannot read {path_text(path)}: {problem}")
    return path


def _config_from(args: argparse.Namespace) -> Config:
    config = Config.default()
    for f in DATA_FILES:
        value = getattr(args, f.attribute, None)
        if value is not None:
            setattr(config, f.attribute, _regular_file(value))
    return config


@cache  # parse_args leaves the parsers as they were
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


def _cell_term(entry: tuple[str, RoleRealization]) -> list:
    variable, realization = entry
    if isinstance(realization, DirectCase):
        return [variable, realization.case.value]
    if isinstance(realization, Oblique):
        preposition = QuotedString(realization.preposition)
        return [variable, ["oblique", preposition, realization.governed.value]]
    return [variable, "blocked"]


def _process_term(selection: ProcessSelection | str) -> list:
    if isinstance(selection, str):
        return ["process", selection]
    return ["process", selection.um_type, *map(list, selection.participants)]


def _written(term_of):
    """``sexpr.write(term_of(key))``, written on the key's first use and
    kept, so a part many lines share is written once."""
    return cache(lambda key: sexpr.write(term_of(key)))


def _list_text(head: str, items: list[str]) -> str:
    """``(head item ...)`` from items already written."""
    return f"({' '.join([head, *items])})"


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
    # the structured parts lines share: emphasis patterns, (variable
    # realization) cells, quoted lemmas and process terms; variables are
    # symbols (``sexpr.variable`` reads them), so they are written bare
    emphases = _written(lambda e: ["emphasis", *map(list, sorted(e.emphatic))])
    cells = _written(_cell_term)
    lemmas = _written(QuotedString)
    processes = _written(_process_term)
    enumeration = bundle.enumerate_forms()
    for index, form in enumerate(enumeration.forms, start=1):
        selection = bundle.selection(form)
        verbs = match_verbs(form, bundle.verbs)
        if isinstance(selection, SelectionError):  # a form no rule or several classify is marked
            unclassified = isinstance(selection, UnclassifiedFormError)
            selection = "unclassified" if unclassified else "ambiguous"
        if fmt == "structured":
            lines.append(_list_text("form", [
                emphases(form.emphasis),
                _list_text("blocked", sorted(form.blocking.blocked)),
                _list_text("cases", [cells(entry) for entry in form.realization.entries]),
                _list_text("verbs", [lemmas(v.lemma) for v in verbs]),
                processes(selection),
            ]))
        else:
            lines.append(f"form {index}")
            emphatic = " ".join(sexpr.write(list(p)) for p in sorted(form.emphasis.emphatic))
            lines.append(f"  emphasis: {emphatic}")
            blocked = " ".join(sorted(form.blocking.blocked)) or "(none)"
            lines.append(f"  blocked: {blocked}")
            cases = " ".join(f"{v}={r}" for v, r in form.realization.entries)
            lines.append(f"  cases: {cases}")
            lines.append(
                "  verbs: " + (", ".join(v.lemma for v in verbs) or "(none)")
            )
            if isinstance(selection, str):
                lines.append(f"  process: {selection}")
            else:
                participants = " ".join(f"{r}={v}" for r, v in selection.participants)
                lines.append(f"  process: {selection.um_type} [{participants}]")
    if fmt == "structured":
        lines.append(sexpr.write(["count", len(enumeration.forms)]))
    else:
        lines.append(
            f"{len(enumeration.forms)} forms "
            f"({enumeration.rejected_assignment} pairs rejected by case assignment)"
        )
    return lines


def _run_generation(args: argparse.Namespace, bundle: Bundle):
    with staged("binding"):
        binding = load_binding(bundle, read_data(_regular_file(args.bindings)))
    state = None
    if args.script:
        with staged("plan"):
            state = run_script(parse_script(read_data(_regular_file(args.script))))
    emphasis_q = EmphasisQ(args.emphasis_q) if args.emphasis_q else None
    with staged("generate"):
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
    state = run_script(updates)
    lines: list[str] = []
    structured = args.format == "structured"
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
        for i, update in enumerate(updates, start=1):
            mention_text = " ".join(update.mentions) or "(none)"
            line = f"sentence {i}: mentions {mention_text}"
            if update.hypertheme:
                line += f"; hypertheme {update.hypertheme}"
            lines.append(line)
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
    lines = report.lines + [f"problem: {problem}" for problem, _ in report.problems]
    if report.ok:
        lines.append("ok")
    return lines, report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with staged("load"):
            bundle = load_bundle(_config_from(args))
        if args.command == "plan":
            with staged("plan"):
                lines = cmd_plan(args)
        elif args.command == "frame":
            lines = cmd_frame(bundle, args.format)
        elif args.command == "forms":
            lines = cmd_forms(bundle, args.format)
        elif args.command == "check":
            lines, code = cmd_check(bundle)
            print("\n".join(lines))
            return code
        else:
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
