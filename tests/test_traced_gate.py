"""The benchmark's traced gate, run in process on a small field: the
atlas-scaling workload's pair identity must hold for ``forms``, and
process selection must run once per selection key, not once per form."""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fields  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, install  # noqa: E402

from emphase import cli  # noqa: E402


def test_forms_keeps_the_traced_pair_identity(tmp_path):
    spec = fields.write_field(tmp_path, 4, 1)
    assert spec.variables == 9
    tracer = Tracer()
    restore = install(tracer, layers.layer_modules(), layers.observers(tracer))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["forms", "--format", "structured", "--field",
                             str(spec.field_path), "--lexicon", str(spec.lexicon_path)])
    finally:
        restore()
    assert code == 0
    assert layers.pairs_identity_holds(tracer)
    assert layers.op_metrics(tracer, 1)["emphasis.check_blocking_calls"] == spec.pairs
    # the 160 forms share 17 selection keys, and each key is classified once
    metrics = layers.op_metrics(tracer, 1)
    assert (metrics["emphasis.forms"], metrics["lexicon.select_process_type_calls"]) == (160, 17)
