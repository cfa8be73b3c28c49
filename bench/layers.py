"""The layers of emphase (one per module) and the per-layer metrics
derived from a traced run.

Each metric below names the end-to-end metric it should move:

* parsing (``sexpr.read_s``, ``scheme.parse_s``, ``roles.derive_case_frame_s``,
  ``lexicon.parse_lexicon_s`` and their ``setup.`` twins): ``setup_s`` on every
  workload and ``op_p50_ms`` on cli-cold;
* enumeration (``emphasis.*``): the op times of atlas-scaling;
* ``pipeline.*``, ``spl.*``, ``realize.realize_s``, ``discourse.status_of_s``
  and ``lexicon.select_process_type_*``: the op times of generate-warm
  (``select_process_type`` and ``match_verbs`` also run once per output form
  on atlas-scaling);
* ``cli.main_self_s`` and ``import.*``: the op times of cli-cold.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from tracer import SpanStats, Tracer, aggregate, count_children

LAYERS = ("sexpr", "scheme", "roles", "emphasis", "lexicon", "spl", "realize",
          "discourse", "pipeline", "cli")

# metric -> span names whose outermost calls are summed (inclusive time)
INCLUSIVE = {
    "sexpr.read_s": ("sexpr.read", "sexpr.read_all"),
    "scheme.parse_s": ("scheme.parse_field", "scheme.parse_binding"),
    "roles.derive_case_frame_s": ("roles.derive_case_frame",),
    "lexicon.parse_lexicon_s": ("lexicon.parse_lexicon",),
    "emphasis.enumerate_s": ("emphasis.enumerate_semantic_forms",),
    "emphasis.check_blocking_s": ("emphasis.check_blocking",),
    "emphasis.assign_cases_s": ("emphasis.assign_cases",),
    "pipeline.form_for_entry_s": ("pipeline.form_for_entry",),
    "lexicon.select_process_type_s": ("lexicon.select_process_type",),
    "lexicon.match_verbs_s": ("lexicon.match_verbs",),
    "spl.build_spl_s": ("spl.build_spl",),
    "spl.serialize_spl_s": ("spl.serialize_spl",),
    "realize.realize_s": ("realize.realize",),
    "discourse.status_of_s": ("discourse.status_of",),
}
CALLS = {
    "emphasis.check_blocking_calls": "emphasis.check_blocking",
    "emphasis.assign_cases_calls": "emphasis.assign_cases",
    "pipeline.form_for_entry_calls": "pipeline.form_for_entry",
    "lexicon.select_process_type_calls": "lexicon.select_process_type",
    "lexicon.match_verbs_calls": "lexicon.match_verbs",
}
SELF = {
    "pipeline.generate_self_s": "pipeline.generate",
    "cli.main_self_s": "cli.main",
}
SETUP = ("sexpr.read_s", "scheme.parse_s", "roles.derive_case_frame_s",
         "lexicon.parse_lexicon_s")

ENUMERATE = "emphasis.enumerate_semantic_forms"


def layer_modules() -> list[ModuleType]:
    """The package (an import site) and its ten layer modules."""
    return [importlib.import_module("emphase")] + [
        importlib.import_module(f"emphase.{layer}") for layer in LAYERS
    ]


def observers(tracer: Tracer) -> dict:
    """Record the size of every atlas the traced code enumerates."""

    def atlas(enumeration) -> None:
        tracer.add("emphasis.forms", len(enumeration.forms))
        tracer.add("emphasis.rejected_blocking", enumeration.rejected_blocking)
        tracer.add("emphasis.rejected_assignment", enumeration.rejected_assignment)

    return {ENUMERATE: atlas}


def _inclusive_s(stats: dict[str, SpanStats], names: tuple[str, ...]) -> float:
    return sum(stats[n].inclusive_ns for n in names if n in stats) / 1e9


def op_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer metrics of a traced phase of ``ops`` operations."""
    stats = aggregate(tracer)
    out: dict[str, float] = {}
    for layer in LAYERS:
        entries = [s for name, s in stats.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(s.self_ns for s in entries) / 1e9 / ops
        out[f"{layer}.calls"] = sum(s.calls for s in entries) / ops
    for metric, names in INCLUSIVE.items():
        out[metric] = _inclusive_s(stats, names) / ops
    for metric, name in CALLS.items():
        out[metric] = (stats[name].calls if name in stats else 0) / ops
    for metric, name in SELF.items():
        out[metric] = (stats[name].self_ns if name in stats else 0) / 1e9 / ops
    pairs = count_children(tracer, ENUMERATE, "emphasis.check_blocking")
    forms = tracer.counters.get("emphasis.forms", 0)
    out["emphasis.pairs_visited"] = pairs / ops
    out["emphasis.forms"] = forms / ops
    out["emphasis.rejected_blocking"] = tracer.counters.get("emphasis.rejected_blocking", 0) / ops
    out["emphasis.rejected_assignment"] = (
        tracer.counters.get("emphasis.rejected_assignment", 0) / ops
    )
    out["emphasis.atlas_yield"] = forms / pairs if pairs else 0.0
    out["trace.spans_per_op"] = len(tracer) / ops
    return out


def pairs_identity_holds(tracer: Tracer) -> bool:
    """Every pair the enumeration visits ends as a form or a rejection."""
    visited = count_children(tracer, ENUMERATE, "emphasis.check_blocking")
    c = tracer.counters
    return visited == (c.get("emphasis.forms", 0) + c.get("emphasis.rejected_blocking", 0)
                       + c.get("emphasis.rejected_assignment", 0))


def setup_metrics(tracer: Tracer, loads: int) -> dict[str, float]:
    """Parse-layer times per fresh bundle load."""
    stats = aggregate(tracer)
    return {f"setup.{m}": _inclusive_s(stats, INCLUSIVE[m]) / loads for m in SETUP}
