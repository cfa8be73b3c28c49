"""The package's public surface is the one README "Library use" documents,
and importing it generates no code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import emphase

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_names() -> set[str]:
    """Backticked plain names of the "Library use" section, outside its
    code block; dotted module paths are not package exports."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return set(re.findall(r"`([A-Za-z_]\w*)`", prose))


def test_exports_are_the_documented_names():
    names = _library_use_names()
    assert len(names) == 21
    assert set(emphase.__all__) == names
    assert len(emphase.__all__) == len(names)
    assert all(hasattr(emphase, name) for name in names)


def test_import_loads_no_code_generation_modules():
    """No record type goes through ``dataclasses``, whose import also pulls
    in ``inspect`` and ``ast``; ``-S`` keeps site packages from loading them."""
    src = Path(emphase.__file__).resolve().parent.parent
    probe = ("import sys, emphase.cli; "
             "print(sorted({'ast', 'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
