"""Synthetic lexical fields for the atlas-scaling workload.

Every field has the shape

    (cause (act ?a) (et B0 (et B1 ... B(k-1))))

where branch Bi is ``(bec (have ?xi ?yi))`` or ``(bec (not (have ?xi ?yi)))``
and the seed picks each polarity.  Emphasis starts at ``(1)``, so the act
branch is optional and a field of k branches has 2k emphasis assignments
over 2k + 1 variables.

Why this family: the shipped role rules, oblique table, case priorities
and process rules cover every branch, so no operation fails and the run
isolates the |emphasis| x 2^|variables| pair loop of the enumeration.  The
number of pairs visited depends only on k, so the cost of a field is fixed
by its size, while the number of forms that survive case assignment (its
output size) changes with the polarities the seed draws.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# field sizes of the workload: k branches give 2k + 1 variables
BRANCH_COUNTS = (4, 5, 6)


@dataclass(frozen=True)
class SyntheticField:
    """Files and provenance of one generated field."""

    k: int
    seed: int
    polarities: tuple[bool, ...]  # True: (bec (have ..)), False: (bec (not (have ..)))
    field_path: Path
    lexicon_path: Path

    @property
    def variables(self) -> int:
        return 2 * self.k + 1

    @property
    def pairs(self) -> int:
        """(emphasis, blocking) pairs the enumeration visits."""
        return 2 * self.k * 2**self.variables


def polarities(k: int, seed: int) -> tuple[bool, ...]:
    rng = random.Random(f"atlas-field:{k}:{seed}")
    return tuple(rng.random() < 0.5 for _ in range(k))


def field_text(k: int, seed: int) -> str:
    signs = polarities(k, seed)
    branches = [
        f"(bec (have ?x{i} ?y{i}))" if positive else f"(bec (not (have ?x{i} ?y{i})))"
        for i, positive in enumerate(signs)
    ]
    chain = branches[-1]
    for branch in reversed(branches[:-1]):
        chain = f"(et {branch} {chain})"
    pattern = " ".join("+" if positive else "-" for positive in signs)
    return (
        f"; synthetic field: k={k} seed={seed} variables={2 * k + 1} "
        f"polarities {pattern}\n"
        f"(field synth-k{k}\n"
        f"  (scheme (cause (act ?a) {chain}))\n"
        f"  (emphasis-start (1)))\n"
    )


def write_field(out_dir: Path, k: int, seed: int) -> SyntheticField:
    """Write the field, an empty lexicon and a provenance record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    field_path = out_dir / f"synth-k{k}.field"
    lexicon_path = out_dir / "empty.lex"
    field_path.write_text(field_text(k, seed), encoding="utf-8")
    lexicon_path.write_text("", encoding="utf-8")
    spec = SyntheticField(k, seed, polarities(k, seed), field_path, lexicon_path)
    record = {
        "k": k,
        "seed": seed,
        "polarities": ["+" if p else "-" for p in spec.polarities],
        "variables": spec.variables,
        "pairs": spec.pairs,
        "field": field_path.name,
        "lexicon": lexicon_path.name,
    }
    (out_dir / f"synth-k{k}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return spec


def config_for(spec: SyntheticField):
    """Shipped bundle with the field and lexicon replaced by the synthetic
    ones; the other seven paths stay on the shipped files."""
    from emphase.pipeline import Config

    config = Config.default()
    config.field_path = spec.field_path
    config.lexicon_path = spec.lexicon_path
    return config
