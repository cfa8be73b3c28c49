"""End-to-end CLI behaviour: output, formats, exit codes."""

import contextlib
import copy
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import emphase
from emphase import sexpr
from emphase.cli import main
from emphase.pipeline import Config

from bruteforce import random_term

SPL_DATIVE = (
    "(send / directed-action :actor (he / person) "
    ":recipient (him / person :emphasis-q emphatic) :actee (invitation / object))"
)
SPL_OBLIQUE = (
    "(send / directed-action :actor (he / person) "
    ":recipient (him / person :emphasis-q nonemphatic) :actee (invitation / object))"
)


def data_path(*parts) -> str:
    root = Config.default().field_path.parent.parent
    for part in parts:
        root = root / part
    return str(root)


BINDING_SEND = data_path("bindings", "he-him-invitation.binding")
BINDING_KEY = data_path("bindings", "she-key.binding")
SCRIPT = data_path("discourse", "biography.script")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_default(capsys):
    code, out, _ = run(capsys, "frame")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field: change-of-possession"
    assert len(lines) == 6
    assert "<agens, act>" in lines[1]
    assert "<from-obj, have>" in lines[5]


def test_frame_structured_is_parseable(capsys):
    code, out, _ = run(capsys, "frame", "--format", "structured")
    assert code == 0
    term = sexpr.read(out)
    assert term[0] == "frame"
    assert ["a", ["agens", "act"]] in term
    assert ["a3", ["source", "have"]] in term


def test_frame_small_field(capsys, tmp_path):
    field = tmp_path / "mini.field"
    field.write_text("(field mini (scheme (have ?x ?y)) (emphasis-start ()))")
    code, out, _ = run(capsys, "frame", "--field", str(field))
    assert code == 0
    assert "<locat, have>" in out and "<obj, have>" in out
    assert len(out.strip().splitlines()) == 3


def test_frame_incomplete_rules_is_a_rule_gap(capsys, tmp_path):
    rules = tmp_path / "partial.rules"
    rules.write_text("(init have 1 (locat have))")
    code, out, err = run(capsys, "frame", "--rules", str(rules))
    assert code == 2
    assert "initial role" in err or "role rule" in err


def test_forms_text_count_line_last(capsys):
    code, out, _ = run(capsys, "forms")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("15 forms")
    assert "rejected by case assignment" in lines[-1]
    assert any("verbs: schicken" in line for line in lines)
    # the verlieren row carries its process type
    blocks = out.split("form ")
    verlieren_block = next(b for b in blocks if "verbs: verlieren" in b)
    assert "process: dispositive-material-action" in verlieren_block
    assert "a3=nominative" in verlieren_block


def test_forms_structured_terms(capsys):
    code, out, _ = run(capsys, "forms", "--format", "structured")
    assert code == 0
    terms = sexpr.read_all(out)
    assert terms[-1] == ["count", 15]
    assert all(t[0] == "form" for t in terms[:-1])


def test_generate_emphatic_golden(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--emphasis-q", "emphatic",
    )
    assert code == 0
    assert out.splitlines() == [SPL_DATIVE, "Er schickt ihm eine Einladung."]


def test_generate_nonemphatic_golden(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--emphasis-q", "nonemphatic",
    )
    assert code == 0
    assert out.splitlines() == [SPL_OBLIQUE, "Er schickt eine Einladung an ihn."]


def test_generate_from_script_identical_to_flag(capsys):
    code, scripted, _ = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--script", SCRIPT,
    )
    assert code == 0
    code, flagged, _ = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--emphasis-q", "emphatic",
    )
    assert code == 0
    assert scripted == flagged


def test_generate_refuses_emphatic_focus(capsys):
    code, _out, err = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--script", SCRIPT, "--focus", "recipient",
    )
    assert code == 1
    assert "focus" in err


def test_generate_refuses_a_misspelt_focus_role(capsys):
    for decision in (["--emphasis-q", "emphatic"], ["--emphasis-q", "nonemphatic"],
                     ["--script", SCRIPT]):
        code, out, err = run(
            capsys, "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
            *decision, "--focus", "recipent",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "emphase: error [generate]: the focus role must be a participant role "
            "(actor, recipient, actee), got 'recipent'"
        ]


def test_generate_refuses_flag_plus_script(capsys):
    code, _out, err = run(
        capsys,
        "generate", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--script", SCRIPT, "--emphasis-q", "emphatic",
    )
    assert code == 1
    assert "not both" in err


def test_generate_unknown_verb(capsys):
    code, _out, err = run(
        capsys, "generate", "--verb", "tanzen", "--bindings", BINDING_SEND
    )
    assert code == 1
    assert "tanzen" in err


def test_generate_ambiguous_frames_need_decision(capsys):
    code, _out, err = run(
        capsys, "generate", "--verb", "schicken", "--bindings", BINDING_SEND
    )
    assert code == 1
    assert "several frames" in err


def test_emphasis_q_for_recipientless_verb_fails(capsys):
    code, _out, err = run(
        capsys,
        "generate", "--verb", "verlieren", "--bindings", BINDING_KEY,
        "--emphasis-q", "emphatic",
    )
    assert code == 1
    assert "recipient" in err


def test_spl_command_emits_plan_only(capsys):
    code, out, _ = run(
        capsys,
        "spl", "--verb", "schicken", "--bindings", BINDING_SEND,
        "--emphasis-q", "emphatic",
    )
    assert code == 0
    assert out.splitlines() == [SPL_DATIVE]


def test_realize_command_emits_sentence_only(capsys):
    code, out, _ = run(
        capsys,
        "realize", "--verb", "wegwerfen", "--bindings", BINDING_KEY,
    )
    assert code == 0
    assert out.splitlines() == ["Sie wirft den Schlüssel weg."]


def test_generate_structured(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--verb", "verlieren", "--bindings", BINDING_KEY,
        "--format", "structured",
    )
    assert code == 0
    term = sexpr.read(out)
    assert term[0] == "generated"
    assert ["sentence", "Sie verliert den Schlüssel."] in term


def test_bad_binding_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.binding"
    bad.write_text(
        """(binding (ref ?a bob person) (ref ?a1 bob person) (ref ?a2 key object)
                    (ref ?a3 bob person) (ref ?a4 key object))"""
    )
    code, _out, err = run(
        capsys, "realize", "--verb", "verlieren", "--bindings", str(bad)
    )
    assert code == 1
    assert "binding" in err and "distinct" in err


def test_missing_file_is_input_error(capsys):
    code, _out, err = run(capsys, "frame", "--field", "/no/such/file")
    assert code == 1
    assert "cannot read" in err


# What a path flag names, and the error after "emphase: error [stage]: ".
_UNREADABLE = {
    "missing": "cannot read {path}: no such file",
    "directory": "cannot read {path}: is a directory",
    "dangling symlink": "cannot read {path}: dangling symbolic link",
    "device": "cannot read {path}: not a regular file",
    "empty file": "1:1: empty input",
}


@pytest.mark.parametrize("kind", list(_UNREADABLE))
@pytest.mark.parametrize("argv, stage, parse_stage", [
    (["frame", "--field"], "load", "frame"),
    (["generate", "--verb", "schicken", "--emphasis-q", "emphatic", "--bindings"],
     "binding", "binding"),
], ids=["data-file", "bindings"])
def test_a_path_flag_names_why_it_cannot_read(capsys, tmp_path, kind, argv, stage,
                                              parse_stage):
    path = {
        "missing": tmp_path / "missing",
        "directory": tmp_path,
        "dangling symlink": tmp_path / "link",
        "device": Path(os.devnull),
        "empty file": tmp_path / "empty",
    }[kind]
    if kind == "dangling symlink":
        path.symlink_to(tmp_path / "nowhere")
    elif kind == "empty file":
        path.write_text("")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    stage = parse_stage if kind == "empty file" else stage
    assert err.splitlines() == [
        f"emphase: error [{stage}]: " + _UNREADABLE[kind].format(path=path)
    ]


def test_plan_command(capsys):
    code, out, _ = run(capsys, "plan", "--script", SCRIPT, "--referent", "him")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("sentence 1:")
    assert "hypertheme him" in lines[0]
    assert any(line.startswith("state: 2 sentences") for line in lines)
    assert lines[-1] == "emphasis-q(him): emphatic"


def test_plan_structured(capsys):
    code, out, _ = run(
        capsys, "plan", "--script", SCRIPT, "--referent", "him",
        "--format", "structured",
    )
    assert code == 0
    terms = sexpr.read_all(out)
    assert terms[0][0] == "plan-state"
    assert ["emphasis-q", "him", "emphatic"] in terms


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert out.strip().splitlines()[-1] == "ok"


def test_check_reports_rule_gap(capsys, tmp_path):
    rules = tmp_path / "partial.rules"
    rules.write_text("(init have 1 (locat have)) (init act 1 (agens act))")
    code, out, _ = run(capsys, "check", "--rules", str(rules))
    assert code == 2
    assert "problem:" in out
    assert "initial role" in out or "role rule" in out


def test_check_reports_lexicon_mismatch(capsys, tmp_path):
    lex = tmp_path / "bad.lex"
    lex.write_text(
        """(verb "verlieren" (field change-of-possession)
              (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
              (blocked ?a ?a1 ?a2)
              (event lose) (present-3sg "verliert")
              (um directed-action))"""
    )
    code, out, _ = run(capsys, "check", "--lexicon", str(lex))
    assert code == 1
    assert "declares directed-action" in out


def test_check_claims_only_a_clean_lexicon(capsys, tmp_path):
    lex = tmp_path / "outside.lex"
    lex.write_text(
        """(verb "zerfallen" (field change-of-possession)
              (emphasis (1) (1 1) (1 1 0) (1 1 0 0))
              (blocked ?a ?a1 ?a2 ?a3 ?a4)
              (event decay) (present-3sg "zerfällt"))"""
    )
    code, out, _ = run(capsys, "check", "--lexicon", str(lex))
    assert code == 1
    assert (
        "problem: verb 'zerfallen' (emphasis (1) (1 1) (1 1 0) (1 1 0 0)) "
        "(blocked ?a ?a1 ?a2 ?a3 ?a4) names a pattern outside the atlas"
    ) in out.splitlines()
    assert not any(line.startswith("lexicon:") for line in out.splitlines())


def test_check_reports_overlapping_process_rules(capsys, tmp_path):
    process = tmp_path / "overlap.process"
    process.write_text(
        Path(data_path("rules", "change-of-possession.process")).read_text()
        + "(process-rule action (unblocked agens))"
    )
    code, out, _ = run(capsys, "check", "--process", str(process))
    assert code == 1
    assert "process-type rules are not disjoint" in out
    assert "process rules: disjoint over the atlas" not in out


def test_check_names_each_faulty_entry_by_its_pattern(capsys, tmp_path):
    process = tmp_path / "beneficiary.process"
    process.write_text(
        Path(data_path("rules", "change-of-possession.process")).read_text()
        + "(role-map beneficiary agens)\n"
    )
    code, out, _ = run(capsys, "check", "--process", str(process))
    assert code == 1
    schicken = [l for l in out.splitlines() if l.startswith("problem: verb 'schicken'")]
    assert schicken == [
        "problem: verb 'schicken' (emphasis (0) (1) (1 0) (1 0 0)) (blocked ?a3 ?a4): "
        "participant map is not injective over verbalized roles",
        "problem: verb 'schicken' (emphasis (0) (1) (1 1) (1 1 0) (1 1 0 0)) "
        "(blocked ?a2 ?a3): participant map is not injective over verbalized roles",
    ]


def _ambiguous_bundle(tmp_path) -> list[str]:
    """A second process rule that overlaps directed-action."""
    process = tmp_path / "ambiguous.process"
    process.write_text(
        Path(data_path("rules", "change-of-possession.process")).read_text()
        + "(process-rule directed-action-too (unblocked goal))\n"
    )
    um = tmp_path / "ambiguous.um"
    um.write_text(
        Path(data_path("upper-model.um")).read_text()
        + "(um-type directed-action-too action)\n"
    )
    return ["--process", str(process), "--um", str(um)]


def test_forms_marks_ambiguous_forms(capsys, tmp_path):
    _, shipped, _ = run(capsys, "forms")
    code, out, err = run(capsys, "forms", *_ambiguous_bundle(tmp_path))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "  process: ambiguous" in lines
    assert any(line.startswith("  process: dispositive-material-action") for line in lines)
    assert lines[-1] == shipped.splitlines()[-1]
    # only the process lines differ from the shipped atlas
    assert [l for l in lines if "process:" not in l] == [
        l for l in shipped.splitlines() if "process:" not in l
    ]


def test_forms_structured_marks_ambiguous_forms(capsys, tmp_path):
    code, out, _ = run(
        capsys, "forms", "--format", "structured", *_ambiguous_bundle(tmp_path)
    )
    assert code == 0
    terms = [sexpr.read(line) for line in out.splitlines()]
    assert any(["process", "ambiguous"] in term for term in terms)
    assert terms[-1][0] == "count"


def test_deeply_nested_binding_fails_cleanly(tmp_path):
    deep = tmp_path / "deep.binding"
    deep.write_text("(" * 3000 + ")" * 3000)
    src = str(Path(emphase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "emphase.cli", "generate", "--verb", "schicken",
         "--bindings", str(deep)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("emphase: error [binding]: ")
    assert "deeper than" in lines[0]


def test_bad_utf8_binding_is_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.binding"
    bad.write_bytes("(binding (ref ?a jürgen person))".encode("latin-1"))
    code, out, err = run(
        capsys, "generate", "--verb", "verlieren", "--bindings", str(bad)
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("emphase: error [binding]: cannot read ")
    assert str(bad) in err


def test_outputs_deterministic(capsys):
    first = run(capsys, "forms")
    second = run(capsys, "forms")
    assert first == second


# ---------------------------------------------------------------------------
# No traceback from any input

# Each file the CLI reads: its option, its path under the data directory,
# and how it is used (None: a bundle file, read by every command).
_FUZZ_TARGETS = [
    ("--field", ("fields", "change-of-possession.field"), None),
    ("--rules", ("rules", "change-of-possession.rules"), None),
    ("--oblique", ("rules", "change-of-possession.oblique"), None),
    ("--cases", ("rules", "change-of-possession.cases"), None),
    ("--process", ("rules", "change-of-possession.process"), None),
    ("--um", ("upper-model.um",), None),
    ("--lexicon", ("lexicon", "change-of-possession.lex"), None),
    ("--np", ("lexicon", "nps.lex"), None),
    ("--morph", ("lexicon", "morphology.lex"), None),
    ("--bindings", ("bindings", "he-him-invitation.binding"), "generate"),
    ("--script", ("discourse", "biography.script"), "script"),
]
_GENERATE = ["generate", "--verb", "schicken", "--bindings", BINDING_SEND]


def _commands(option: str, path: str, kind: str | None) -> list[list[str]]:
    """Every invocation that reads the file at ``path`` given as ``option``."""
    if kind == "generate":
        return [[command, "--verb", verb, "--bindings", path, "--emphasis-q", q]
                for command in ("generate", "spl") for verb in ("schicken", "verlieren")
                for q in ("emphatic", "nonemphatic")]
    if kind == "script":
        return [_GENERATE + ["--script", path], ["plan", "--script", path, "--referent", "him"]]
    return [[command, option, path] for command in ("frame", "forms", "check")] + [
        _GENERATE + [option, path, "--emphasis-q", q] for q in ("emphatic", "nonemphatic")
    ]


def assert_clean_exit(argv: list[str]) -> None:
    """``main`` returns 0, 1 or 2 and raises nothing; an error is one
    ``emphase: error`` line on stderr and nothing on stdout, except that
    ``check`` reports the problems it finds on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    elif argv[0] == "check" and not err.getvalue():
        assert any(line.startswith("problem: ") for line in out.getvalue().splitlines())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("emphase: error"), lines
        assert out.getvalue() == ""


def _subterms(term, place=()):
    yield place
    if isinstance(term, list):
        for i, item in enumerate(term):
            yield from _subterms(item, place + (i,))


def _mutated(text: str, rng: random.Random) -> str:
    """The file's terms with one subterm replaced by a random term, or by a
    copy of another subterm of the same file."""
    terms = sexpr.read_all(text)
    places = list(_subterms(terms))[1:]
    if rng.random() < 0.7:
        new = random_term(rng)
    else:
        new = terms
        for i in rng.choice(places):
            new = new[i]
        new = copy.deepcopy(new)
    *parent_place, last = rng.choice(places)
    parent = terms
    for i in parent_place:
        parent = parent[i]
    parent[last] = new
    return "\n".join(sexpr.write(t) for t in terms)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_no_traceback_from_a_replaced_subterm(fuzz_dir, seed):
    rng = random.Random(seed)
    option, parts, kind = rng.choice(_FUZZ_TARGETS)
    path = fuzz_dir / parts[-1]
    path.write_text(_mutated(Path(data_path(*parts)).read_text(), rng), encoding="utf-8")
    argv = rng.choice(_commands(option, str(path), kind))
    if rng.random() < 0.5:
        argv = argv + ["--format", "structured"]
    assert_clean_exit(argv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_no_traceback_from_random_bytes(fuzz_dir, seed):
    rng = random.Random(seed)
    option, parts, kind = rng.choice(_FUZZ_TARGETS)
    path = fuzz_dir / parts[-1]
    size = rng.randint(0, 120)
    if rng.random() < 0.5:
        path.write_bytes(rng.randbytes(size))
    else:  # bytes that often read as terms
        path.write_bytes(bytes(rng.choices(b'()";?-019 az\n\x0b\xc3\xa4', k=size)))
    assert_clean_exit(rng.choice(_commands(option, str(path), kind)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.text())
def test_no_traceback_from_a_flag_value(seed, value):
    """``--referent``, ``--verb`` or ``--focus`` set to any text, given as
    ``--flag=value`` so that argparse never reads the value as a flag."""
    rng = random.Random(seed)
    verb, focus = rng.choice([(value, "recipient"), ("schicken", value)])
    decision = rng.choice([["--emphasis-q", "emphatic"], ["--emphasis-q", "nonemphatic"],
                           ["--script", SCRIPT]])
    for fmt in ("text", "structured"):
        assert_clean_exit(["plan", "--script", SCRIPT, f"--referent={value}", "--format", fmt])
        for command in ("generate", "spl", "realize"):
            assert_clean_exit([command, f"--verb={verb}", "--bindings", BINDING_SEND,
                               f"--focus={focus}", *decision, "--format", fmt])


def test_plan_refuses_a_referent_no_script_can_name(capsys):
    for value in ("a b", "12", "x;y", "", '"him"'):
        for fmt in ("text", "structured"):
            code, out, err = run(capsys, "plan", "--script", SCRIPT, f"--referent={value}",
                                 "--format", fmt)
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                f"emphase: error [plan]: --referent must be a bare symbol, got {value!r}"
            ]


@pytest.mark.parametrize("option, parts, old, new, argv", [
    ("--oblique", ("rules", "change-of-possession.oblique"),
     "(oblique (goal have)", "(oblique ((goal) have)", ["forms"]),
    ("--rules", ("rules", "change-of-possession.rules"),
     "(init act 1 (agens act))", "(init (act) 1 (agens act))", ["frame"]),
    ("--rules", ("rules", "change-of-possession.rules"), "(flip not)", "(flip (not))", ["frame"]),
    ("--lexicon", ("lexicon", "change-of-possession.lex"), "(event send)", "(event (send))",
     _GENERATE + ["--emphasis-q", "emphatic"]),
    ("--lexicon", ("lexicon", "change-of-possession.lex"),
     '(present-3sg "verliert")', "(present-3sg (a b))",
     ["realize", "--verb", "verlieren", "--bindings", BINDING_KEY]),
    ("--lexicon", ("lexicon", "change-of-possession.lex"), "(event lose)", '(event "lose")',
     ["spl", "--verb", "verlieren", "--bindings", BINDING_KEY]),
    ("--lexicon", ("lexicon", "change-of-possession.lex"), '(verb "verlieren"',
     '(verb "ver\nlieren"', ["forms", "--format", "structured"]),
], ids=["oblique-role", "init-predicate", "flip-predicate", "event-list", "present-3sg-list",
        "event-string", "lemma-newline"])
def test_misplaced_term_is_one_error_line(capsys, tmp_path, option, parts, old, new, argv):
    text = Path(data_path(*parts)).read_text()
    assert old in text
    path = tmp_path / parts[-1]
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, *argv, option, str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("emphase: error [")
    assert_clean_exit(argv + [option, str(path)])
