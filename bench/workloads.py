"""The three workloads, each a closed loop with one caller.

A workload prepares its inputs from the seed, runs operations one at a
time, checks every output outside the timed region, and can switch
tracing on for a traced phase.  Program code is always reached through
module attributes (``pipeline.generate``, ``cli.main``) so that the
tracer's wrappers are the ones called while tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import bruteforce
import env
import expected
import fields
import layers
from tracer import Tracer, install

from emphase import cli, pipeline, sexpr, spl
from emphase.discourse import EmphasisQ, parse_script, run_script
from emphase.errors import FocusConflictError, InputError


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


class Workload:
    """Interface of a workload; see the subclasses."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.problems: list[str] = []

    def setup_config(self) -> pipeline.Config:
        return pipeline.Config.default()

    def prepare(self) -> None:
        """Make the inputs from the seed; not timed."""
        raise NotImplementedError

    def op(self, index: int) -> tuple[int, bool]:
        """Run operation ``index``; its wall time in ns and whether its
        output was right."""
        raise NotImplementedError

    def final_checks(self, ops: int, thorough: bool) -> int:
        """Checks over the whole run; returns the ops found wrong."""
        return 0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        restore = install(tracer, layers.layer_modules(), layers.observers(tracer))
        try:
            yield
        finally:
            restore()

    def scaling_metrics(self) -> dict[str, float]:
        return {}

    def fail(self, message: str) -> bool:
        if len(self.problems) < 20:
            self.problems.append(message)
        return False


# ---------------------------------------------------------------------------
# generate-warm


class GenerateWarm(Workload):
    """In-process ``pipeline.generate`` plus plan serialization on the
    shipped bundle, loaded once; bindings and script parsed once.  Every
    call re-derives the form of each candidate entry, then selects the
    process, builds the plan and realizes the sentence; no enumeration.

    One operation is ten rounds of the five requests, each round in a
    seeded order; a seeded 2-5% share of rounds adds one of the two
    documented refusals.  A single request lasts about as long as the
    core of a shared host stays in one of its two speeds (about 1.7x
    apart, switching within a millisecond), so per-request percentiles
    jump between the two from run to run; ten rounds average over them
    and over the five request costs."""

    name = "generate-warm"
    KINDS = ("verlieren", "wegwerfen", "schicken-emphatic", "schicken-nonemphatic",
             "schicken-script")
    REFUSALS = ("refuse-no-q", "refuse-focus")
    ROUNDS = 10

    def prepare(self) -> None:
        self.bundle = pipeline.Bundle(self.setup_config()).load_all()
        data = self.root / "src" / "emphase" / "data"
        key = pipeline.load_binding(
            self.bundle, pipeline.read_data(data / "bindings" / "she-key.binding"))
        send = pipeline.load_binding(
            self.bundle, pipeline.read_data(data / "bindings" / "he-him-invitation.binding"))
        state = run_script(parse_script(
            pipeline.read_data(data / "discourse" / "biography.script")))
        self.requests = {
            "verlieren": ("verlieren", key, {}),
            "wegwerfen": ("wegwerfen", key, {}),
            "schicken-emphatic": ("schicken", send, {"emphasis_q": EmphasisQ.EMPHATIC}),
            "schicken-nonemphatic": ("schicken", send,
                                     {"emphasis_q": EmphasisQ.NONEMPHATIC}),
            "schicken-script": ("schicken", send, {"script_state": state}),
            "refuse-no-q": ("schicken", send, {}),
            "refuse-focus": ("schicken", send, {"emphasis_q": EmphasisQ.EMPHATIC,
                                                "focus_role": "recipient"}),
        }
        self.refusal_share = self.rng.uniform(0.02, 0.05)

    def op(self, index: int) -> tuple[int, bool]:
        total, ok = 0, True
        for _ in range(self.ROUNDS):
            kinds = list(self.KINDS)
            self.rng.shuffle(kinds)
            if self.rng.random() < self.refusal_share:
                kinds.insert(self.rng.randrange(len(kinds) + 1), self.rng.choice(self.REFUSALS))
            for kind in kinds:
                lemma, binding, options = self.requests[kind]
                t0 = time.perf_counter_ns()
                try:
                    result = pipeline.generate(self.bundle, lemma, binding, **options)
                    outcome = (result, spl.serialize_spl(result.plan))
                except Exception as err:  # a failing operation is counted, not fatal
                    outcome = err
                total += time.perf_counter_ns() - t0
                ok = self.check(kind, outcome) and ok
        return total, ok

    def check(self, kind: str, outcome) -> bool:
        if kind == "refuse-no-q":
            return type(outcome) is InputError or self.fail(f"{kind}: {outcome!r}")
        if kind == "refuse-focus":
            return type(outcome) is FocusConflictError or self.fail(f"{kind}: {outcome!r}")
        if isinstance(outcome, BaseException):
            return self.fail(f"{kind}: raised {outcome!r}")
        result, plan_text = outcome
        lemma = self.requests[kind][0]
        sentence = {
            "schicken-emphatic": expected.SENTENCES["schicken-dative"],
            "schicken-script": expected.SENTENCES["schicken-dative"],
            "schicken-nonemphatic": expected.SENTENCES["schicken-oblique"],
        }.get(kind, expected.SENTENCES.get(lemma))
        plan = {
            "schicken-emphatic": expected.SEND_DATIVE_PLAN,
            "schicken-script": expected.SEND_DATIVE_PLAN,
            "schicken-nonemphatic": expected.SEND_OBLIQUE_PLAN,
        }.get(kind)
        ok = (
            result.sentence == sentence
            and result.verb.lemma == lemma
            and result.selection.um_type == expected.PROCESS_TYPES[lemma]
            and (plan is None or expected.tokens(plan_text) == expected.tokens(plan))
            and (kind != "schicken-script" or result.emphasis_q is EmphasisQ.EMPHATIC)
        )
        return ok or self.fail(f"{kind}: {result.sentence!r} {plan_text}")


# ---------------------------------------------------------------------------
# atlas-scaling


def _structured_form_key(term) -> tuple:
    """Oracle key of one ``(form ...)`` line of ``forms --format structured``."""
    _, emphasis, blocked, cases = term[:4]
    realization = []
    for variable, value in cases[1:]:
        if isinstance(value, list):  # (oblique "prep" case)
            value = ("oblique", str(value[1]), value[2])
        realization.append((variable, value))
    return (
        frozenset(tuple(p) for p in emphasis[1:]),
        frozenset(blocked[1:]),
        tuple(sorted(realization)),
    )


@contextlib.contextmanager
def _oracle_emphasis(assignments: set[frozenset]):
    """Run ``forms_oracle`` over given emphasis assignments instead of
    its powerset search, which costs 10-20 s at 13 variables."""
    search = bruteforce.emphasis_oracle
    bruteforce.emphasis_oracle = lambda field: assignments
    try:
        yield
    finally:
        bruteforce.emphasis_oracle = search


class AtlasScaling(Workload):
    """``cli.main(["forms", "--format", "structured", ...])`` in process,
    stdout captured, on synthetic fields of 9, 11 and 13 variables (see
    ``fields``).  ``cli.main`` builds a fresh Bundle each time, as a
    ``forms`` user pays for the whole atlas on every run.  One operation
    is a sweep over the three sizes in a seeded order."""

    name = "atlas-scaling"

    def prepare(self) -> None:
        out = self.work / "fields" / f"seed-{self.seed}"
        self.specs = [fields.write_field(out, k, self.seed) for k in fields.BRANCH_COUNTS]
        self.reference: dict[int, str] = {}
        self.size_ns: dict[int, list[int]] = {spec.variables: [] for spec in self.specs}

    def setup_config(self) -> pipeline.Config:
        return fields.config_for(self.specs[-1])

    def op(self, index: int) -> tuple[int, bool]:
        order = list(self.specs)
        self.rng.shuffle(order)
        total, ok = 0, True
        for spec in order:
            argv = ["forms", "--format", "structured", "--field", str(spec.field_path),
                    "--lexicon", str(spec.lexicon_path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception as err:  # a failing operation is counted, not fatal
                code = repr(err)
            elapsed = time.perf_counter_ns() - t0
            total += elapsed
            self.size_ns[spec.variables].append(elapsed)
            text = stdout.getvalue()
            first = self.reference.setdefault(spec.variables, text)
            if code != 0 or text != first:
                ok = self.fail(f"{spec.variables} vars: exit {code}, {stderr.getvalue()!r}")
        return total, ok

    def final_checks(self, ops: int, thorough: bool) -> int:
        """Each size's output against ``tests/bruteforce.py::forms_oracle``.
        At 13 variables the oracle's emphasis search runs only when
        ``thorough``; otherwise the oracle filters the pairs of the
        engine's emphasis assignments, which the 9- and 11-variable
        checks verify in full."""
        from emphase.emphasis import enumerate_emphasis

        wrong = 0
        for spec in self.specs:
            bundle = pipeline.Bundle(fields.config_for(spec))
            enumeration = bundle.enumerate_forms()
            args = (bundle.field, bundle.case_frame, bundle.oblique_table, bundle.priority)
            if thorough or spec.variables < 13:
                keys, rejected = bruteforce.forms_oracle(*args)
            else:
                assignments = {a.emphatic for a in enumerate_emphasis(bundle.field)}
                with _oracle_emphasis(assignments):
                    keys, rejected = bruteforce.forms_oracle(*args)
            terms = sexpr.read_all(self.reference.get(spec.variables, ""))
            produced = [_structured_form_key(t) for t in terms if t[0] == "form"]
            count = [t[1] for t in terms if t[0] == "count"]
            problems = []
            if set(produced) != keys or len(produced) != len(keys):
                problems.append(f"{len(produced)} forms, oracle {len(keys)}")
            if count != [len(keys)]:
                problems.append(f"count line {count}")
            if enumeration.rejected_assignment != rejected:
                problems.append(f"rejected_assignment {enumeration.rejected_assignment}, "
                                f"oracle {rejected}")
            total = (len(enumeration.forms) + enumeration.rejected_blocking
                     + enumeration.rejected_assignment)
            if total != spec.pairs:
                problems.append(f"{total} pairs accounted for, expected {spec.pairs}")
            if problems:
                self.fail(f"{spec.variables} vars: " + "; ".join(problems))
                wrong = ops
        return wrong

    def scaling_metrics(self) -> dict[str, float]:
        return {
            f"atlas.v{size}_s": statistics.median(ns) / 1e9 for size, ns in self.size_ns.items()
        }


# ---------------------------------------------------------------------------
# cli-cold


class CliCold(Workload):
    """Cold ``python -m emphase.cli`` processes one at a time.  One
    operation is a round of the four commands in a seeded order, timed as
    the sum of their wall times; whole rounds keep the median from
    falling between the costs of two commands.  Import and first-use
    parsing dominate."""

    name = "cli-cold"
    COMMANDS = {
        "frame": ["frame"],
        "forms": ["forms"],
        "check": ["check"],
        "generate": ["generate", "--verb", "schicken",
                     "--bindings", "src/emphase/data/bindings/he-him-invitation.binding",
                     "--script", "src/emphase/data/discourse/biography.script"],
    }

    def prepare(self) -> None:
        self.env = env.child_env(self.root, self.work)
        self.spans_dir = self.work / "spans"
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.tracer: Tracer | None = None
        # warm-up: fills the bytecode cache; its outputs are the references
        self.reference = {}
        for command in self.COMMANDS:
            _, done = env.timed_run(self.argv(command), self.root, self.env)
            self.reference[command] = done.stdout
        self.check_references()

    def argv(self, command: str, spans: Path | None = None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "emphase.cli", *self.COMMANDS[command]]
        traced = Path(__file__).resolve().parent / "traced_cli.py"
        return [sys.executable, str(traced), str(spans), *self.COMMANDS[command]]

    def check_references(self) -> None:
        shipped = pipeline.Bundle(pipeline.Config.default())
        keys, rejected = bruteforce.forms_oracle(
            shipped.field, shipped.case_frame, shipped.oblique_table, shipped.priority)
        frame_lines = self.reference["frame"].splitlines()[1:]
        wants = {
            "frame": [line.split() for line in frame_lines]
            == [[v, f"<{label},", f"{anchor}>"] for v, (label, anchor) in expected.CASE_FRAME.items()],
            "forms": self.reference["forms"].splitlines()[-1:]
            == [f"{len(keys)} forms ({rejected} pairs rejected by case assignment)"],
            "check": self.reference["check"].splitlines()[-1:] == ["ok"],
            "generate": len(self.reference["generate"].splitlines()) == 2
            and expected.tokens(self.reference["generate"].splitlines()[0])
            == expected.tokens(expected.SEND_DATIVE_PLAN)
            and self.reference["generate"].splitlines()[1] == expected.SENTENCES["schicken-dative"],
        }
        self.references_ok = all(wants.values())
        for command, ok in wants.items():
            if not ok:
                self.fail(f"{command}: unexpected output {self.reference[command][-300:]!r}")

    def op(self, index: int) -> tuple[int, bool]:
        order = list(self.COMMANDS)
        self.rng.shuffle(order)
        total, ok = 0, True
        for command in order:
            spans = self.spans_dir / f"{index}.tsv" if self.tracer is not None else None
            elapsed, done = env.timed_run(self.argv(command, spans), self.root, self.env)
            total += elapsed
            if spans is not None and spans.exists():
                self.tracer.merge(spans, index)
                spans.unlink()
            out = done.stdout
            if not (
                self.references_ok
                and done.returncode == 0
                and out.strip() != ""
                and "emphase: error" not in out + done.stderr
                and out == self.reference[command]
            ):
                ok = self.fail(f"{command}: exit {done.returncode} {done.stderr[-300:]!r}")
        return total, ok

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None


WORKLOADS = {w.name: w for w in (GenerateWarm, AtlasScaling, CliCold)}
