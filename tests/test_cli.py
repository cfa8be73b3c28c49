"""End-to-end CLI behaviour: output, formats, exit codes."""

from pathlib import Path

from emphase import sexpr
from emphase.cli import main
from emphase.pipeline import Config

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
    assert "problem: verb 'zerfallen' names a pattern outside the atlas" in out
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
