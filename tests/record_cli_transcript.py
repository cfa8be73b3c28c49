"""Record the CLI transcript that ``test_cli_transcript.py`` compares with.

Runs a fixed matrix of ``emphase`` invocations through ``cli.main`` in
process, on the shipped bundle and on faulty data files that reach each
stage's error line, and writes each one's exit code, stdout and stderr
to ``cli_transcript.txt`` next to this file.  Re-record after
a change that alters CLI output on purpose, and read the diff::

    PYTHONPATH=src python tests/record_cli_transcript.py

Each invocation is a block: ``$`` and its argv, ``?`` and the exit code,
then one ``>`` line per stdout line and one ``!`` line per stderr line; a
stream that does not end in a line break ends with ``\\ no newline``.
Paths are written as ``{data}`` (the shipped data directory) and
``{faulty}`` (where the faulty files are written).
"""

import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import emphase
from emphase import cli

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.txt"
DATA = Path(emphase.__file__).resolve().parent / "data"

# Faulty data files, by name: one lexicon per reason an entry can have no
# form (every argument of an emphatic proposition blocked, no role
# eligible for nominative, a verbalized non-emphatic role without an
# oblique entry), then one fault for each other stage, then process rules
# that overlap: the shipped ones plus a second rule for directed-action,
# then one file per grammar with a clause repeated inside one term, then
# one file per data-file fault that the lines above do not reach, then
# the two other ways generate's process selection fails (no rule matches,
# a rule names an unknown type), then one file per term-reader error,
# then a lexicon whose first lemma leaves its quote open.
FAULTY = {
    "zerfallen.lex": """(verb "zerfallen" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2 ?a3 ?a4)
  (event decay) (present-3sg "zerfällt"))""",
    "erhalten.lex": """(verb "erhalten" (field change-of-possession)
  (emphasis (1) (1 0) (1 0 0))
  (blocked ?a ?a1 ?a3 ?a4)
  (event receive) (present-3sg "erhält"))""",
    "verlegen.lex": """(verb "verlegen" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1)
  (event mislay) (present-3sg "verlegt"))""",
    "empty.field": "",
    "gap.rules": "(init have 1 (locat have)) (init act 1 (agens act))",
    "ghost.binding": "(binding (ref ?a he person) (ref ?zz ghost person))",
    "two-hyperthemes.script": "(sentence (hypertheme him)) (sentence (hypertheme her))",
    "overlap.process": (DATA / "rules" / "change-of-possession.process").read_text(
        encoding="utf-8") + "(process-rule directed-action (unblocked goal))\n",
    "two-schemes.field": """(field f (scheme (have ?x ?y)) (emphasis-start ())
  (scheme (have ?x ?z)))""",
    "two-branches.field": (DATA / "fields" / "change-of-possession.field").read_text(
        encoding="utf-8").rstrip()[:-1] + "\n  (optional-branch (0)) (optional-branch))\n",
    "two-events.lex": """(verb "verlieren" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2)
  (event lose) (event win) (present-3sg "verliert"))""",
    "two-orders.cases": (DATA / "rules" / "change-of-possession.cases").read_text(
        encoding="utf-8") + "(dative-order source goal)\n",
    "one-sentence-two-hyperthemes.script": "(sentence (hypertheme him) (hypertheme her))",
    "two-entries.oblique": (DATA / "rules" / "change-of-possession.oblique").read_text(
        encoding="utf-8") + '(oblique (goal have) "zu" dative)\n',
    "no-nominative.cases": "(dative-order goal source) (accusative-order to-obj from-obj)",
    "empty-lemma.lex": """(verb "" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2)
  (event lose) (present-3sg "verliert"))""",
    "blocked-twice.lex": """(verb "verlieren" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2 ?a)
  (event lose) (present-3sg "verliert"))""",
    "no-event.lex": """(verb "verlieren" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2)
  (present-3sg "verliert"))""",
    "path-nine.lex": """(verb "verlieren" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0) (9))
  (blocked ?a ?a1 ?a2)
  (event lose) (present-3sg "verliert"))""",
    "no-um.lex": """(verb "verlieren" (field change-of-possession)
  (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
  (blocked ?a ?a1 ?a2)
  (event lose) (present-3sg "verliert"))""",
    "two-types.um": (DATA / "upper-model.um").read_text(encoding="utf-8") + "(um-type entity)\n",
    "two-modify.rules": (DATA / "rules" / "change-of-possession.rules").read_text(
        encoding="utf-8") + "(modify bec pos (locat have) (goal have))\n",
    "two-entries.np": (DATA / "lexicon" / "nps.lex").read_text(
        encoding="utf-8") + "(pronoun he masc)\n",
    "no-dative-pronoun.morph": (DATA / "lexicon" / "morphology.lex").read_text(
        encoding="utf-8").replace("(pronoun-form masc dative ihm)\n", ""),
    "stranger.binding": """(binding (ref ?a he person) (ref ?a1 stranger person)
  (ref ?a2 invitation object) (ref ?a3 he person) (ref ?a4 invitation object))""",
    "a4-only.binding": """(binding (ref ?a he person) (ref ?a1 him person)
  (ref ?a3 he person) (ref ?a4 invitation object))""",
    "empty-have.field": "(field f (scheme (have)) (emphasis-start ()))",
    "basic-and-propositional.field": "(field f (scheme (p (p ?x))) (emphasis-start ()))",
    "variable-predicate.field": "(field f (scheme (?p ?x)) (emphasis-start ()))",
    "no-start.field": "(field f (scheme (have ?x ?y)))",
    "recipient-source.process": (DATA / "rules" / "change-of-possession.process").read_text(
        encoding="utf-8").replace("(role-map recipient goal)", "(role-map recipient goal source)"),
    "three-schicken.lex": (DATA / "lexicon" / "change-of-possession.lex").read_text(
        encoding="utf-8").replace('(verb "verlieren"', '(verb "schicken"'),
    "no-directed-action.process": (DATA / "rules" / "change-of-possession.process").read_text(
        encoding="utf-8").replace(
            "(process-rule directed-action\n  (and (unblocked agens) (unblocked goal)))\n", ""),
    "no-directed-action.um": (DATA / "upper-model.um").read_text(encoding="utf-8").replace(
        "(um-type directed-action action)\n", ""),
    "unterminated-string.field": '(field f (scheme (have ?x ?y)) (emphasis-start ("))\n',
    "unexpected-paren.rules": (DATA / "rules" / "change-of-possession.rules").read_text(
        encoding="utf-8") + ")\n",
    "missing-paren.lex": (DATA / "lexicon" / "change-of-possession.lex").read_text(
        encoding="utf-8").rstrip()[:-1] + "\n",
    "deep.field": "(field f (scheme " + "(" * 200 + "have ?x ?y" + ")" * 200 + "))\n",
    "trailing.field": (DATA / "fields" / "change-of-possession.field").read_text(
        encoding="utf-8") + "(scheme (have ?x ?y))\n",
    "long-integer.field": f"(field f (scheme (have ?x ?y)) (emphasis-start ({'1' * 5000})))\n",
    "open-quote.lex": (DATA / "lexicon" / "change-of-possession.lex").read_text(
        encoding="utf-8").replace('"verlieren"', '"verlieren', 1),
}

FORMATS = ("text", "structured")
LEMMAS = ("schicken", "verlieren", "wegwerfen", "geben")  # geben has no lexicon entry
BINDINGS = ("{data}/bindings/he-him-invitation.binding", "{data}/bindings/she-key.binding")
DECISIONS = ((), ("--emphasis-q", "emphatic"), ("--emphasis-q", "nonemphatic"),
             ("--script", "{data}/discourse/biography.script"))
FOCUS = ((), ("--focus", "recipient"), ("--focus", "actee"))


def invocations() -> list[tuple[str, ...]]:
    """The matrix, as argv with ``{data}`` and ``{faulty}`` unfilled."""
    runs = [(command, "--format", fmt)
            for command in ("frame", "forms", "check") for fmt in FORMATS]
    for command, lemma, binding, decision, focus, fmt in itertools.product(
        ("spl", "realize", "generate"), LEMMAS, BINDINGS, DECISIONS, FOCUS, FORMATS
    ):
        runs.append((command, "--verb", lemma, "--bindings", binding, *decision, *focus,
                     "--format", fmt))
    runs += [("plan", "--script", DECISIONS[3][1], "--referent", "him", "--format", fmt)
             for fmt in FORMATS]
    send = ("--bindings", BINDINGS[0])
    for lemma in ("zerfallen", "erhalten", "verlegen"):
        lexicon = ("--lexicon", f"{{faulty}}/{lemma}.lex")
        runs += [("check", *lexicon), ("generate", "--verb", lemma, *send, *lexicon)]
    runs += [
        ("frame", "--field", "{faulty}/empty.field"),
        ("frame", "--rules", "{faulty}/gap.rules"),
        ("generate", "--verb", "schicken", "--bindings", "{faulty}/ghost.binding"),
        ("generate", "--verb", "schicken", *send, "--script", "{faulty}/two-hyperthemes.script"),
        ("plan", "--script", "{faulty}/two-hyperthemes.script"),
        ("check", "--process", "{faulty}/overlap.process"),
        ("frame", "--field", "{faulty}/two-schemes.field"),
        ("frame", "--field", "{faulty}/two-branches.field"),
        ("check", "--lexicon", "{faulty}/two-events.lex"),
        ("check", "--cases", "{faulty}/two-orders.cases"),
        ("plan", "--script", "{faulty}/one-sentence-two-hyperthemes.script"),
        ("plan", "--script", DECISIONS[3][1], "--field", "{faulty}"),
        ("forms", "--oblique", "{faulty}/two-entries.oblique"),
        ("forms", "--cases", "{faulty}/no-nominative.cases"),
        *(("check", "--lexicon", f"{{faulty}}/{name}.lex")
          for name in ("empty-lemma", "blocked-twice", "no-event", "path-nine", "no-um")),
        ("check", "--um", "{faulty}/two-types.um"),
        ("frame", "--rules", "{faulty}/two-modify.rules"),
        ("check", "--np", "{faulty}/two-entries.np"),
        ("check", "--morph", "{faulty}/no-dative-pronoun.morph"),
        *(("generate", "--verb", "schicken", "--bindings", f"{{faulty}}/{name}.binding",
           "--emphasis-q", "emphatic") for name in ("stranger", "a4-only")),
        *(("frame", "--field", f"{{faulty}}/{name}.field")
          for name in ("empty-have", "basic-and-propositional", "variable-predicate", "no-start")),
        ("generate", "--verb", "schicken", *send, "--script", DECISIONS[3][1],
         "--process", "{faulty}/recipient-source.process",
         "--lexicon", "{faulty}/three-schicken.lex"),
        *(("generate", "--verb", "schicken", *send, "--emphasis-q", "emphatic", flag, path)
          for flag, path in (("--process", "{faulty}/overlap.process"),
                             ("--process", "{faulty}/no-directed-action.process"),
                             ("--um", "{faulty}/no-directed-action.um"))),
        ("frame", "--field", "{faulty}/unterminated-string.field"),
        ("frame", "--rules", "{faulty}/unexpected-paren.rules"),
        ("check", "--lexicon", "{faulty}/missing-paren.lex"),
        *(("frame", "--field", f"{{faulty}}/{name}.field")
          for name in ("deep", "trailing", "long-integer")),
        ("generate", "--verb", "schicken", *send, "--emphasis-q", "emphatic",
         "--script", DECISIONS[3][1]),
        ("generate", "--verb", "schicken", *send, "--emphasis-q", "emphatic",
         "--focus", "beneficiary"),
        ("check", "--lexicon", "{faulty}/open-quote.lex"),
    ]
    return runs


def _stream(mark: str, text: str) -> list[str]:
    *lines, last = text.split("\n")
    written = [f"{mark} {line}" if line else mark for line in lines]
    return written + ([f"{mark} {last}", "\\ no newline"] if last else [])


def transcript() -> str:
    """The transcript of every invocation, as the recorder writes it."""
    blocks = []
    with tempfile.TemporaryDirectory() as faulty:
        for name, text in FAULTY.items():
            (Path(faulty) / name).write_text(text, encoding="utf-8")
        places = {"{data}": str(DATA), "{faulty}": faulty}
        for argv in invocations():
            filled = list(argv)
            for name, place in places.items():
                filled = [arg.replace(name, place) for arg in filled]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(filled)
            streams = [out.getvalue(), err.getvalue()]
            for name, place in places.items():
                streams = [text.replace(place, name) for text in streams]
            blocks.append("\n".join([f"$ {' '.join(argv)}", f"? {code}",
                                     *_stream(">", streams[0]), *_stream("!", streams[1])]))
    return "\n".join(blocks) + "\n"


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript(), encoding="utf-8")
    print(f"wrote {len(invocations())} invocations to {TRANSCRIPT}", file=sys.stderr)
