"""The package's public surface is the one README "Library use" documents,
and importing it generates no code."""

import ast
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

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


def test_engine_modules_import_only_the_standard_library():
    """No module of the package imports ``bench/``, the test oracles or an
    installed package: each absolute import names a standard-library module."""
    package = Path(emphase.__file__).resolve().parent
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], set()).add(path.name)
    assert "typing" in imported
    outside = {name: files for name, files in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}


def test_the_pipeline_reads_no_process_condition():
    """What a process selection reads is decided in ``emphasis`` and
    ``lexicon``: the pipeline does not evaluate a condition itself."""
    path = Path(emphase.__file__).resolve().parent / "pipeline.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "ProcessRule" in imported
    assert "evaluate_condition" not in imported


def test_the_pipeline_reads_no_role_label():
    """A form holds its selection key, so the pipeline reads no role label:
    which variables a selection can read is decided in ``emphasis``."""
    path = Path(emphase.__file__).resolve().parent / "pipeline.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "label"]


def _stage_setters(node: ast.AST, scope: str):
    """The qualified name of the function or class around each assignment
    to an attribute named ``stage``, or ``setattr`` of one, under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "stage"
                   for target in targets for t in ast.walk(target)):
                yield scope
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
              and child.func.id == "setattr" and len(child.args) > 1
              and isinstance(child.args[1], ast.Constant) and child.args[1].value == "stage"):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield from _stage_setters(child, inner)


def test_only_the_error_and_staged_set_a_stage():
    """An error's stage is set in one place: ``EmphaseError.__init__``
    starts it empty and ``pipeline.staged`` names it."""
    package = Path(emphase.__file__).resolve().parent
    setters = [scope for path in sorted(package.glob("*.py"))
               for scope in _stage_setters(ast.parse(path.read_text(encoding="utf-8")),
                                           path.stem)]
    assert sorted(setters) == ["errors.EmphaseError.__init__", "pipeline.staged"]


def test_one_module_decides_an_emphasis_blocking_pair():
    """``emphasis.semantic_form`` is the one decision on a pair, and the
    enumerator its bulk walk: the blocking check, the direct cases and the
    form constructor are called in ``emphasis.py`` alone, a ``SemanticForm``
    is built in one place, and ``pipeline.py`` imports none of the three
    (it imports the ``SemanticForm`` type for its annotations)."""
    decision = {"SemanticForm", "check_blocking", "direct_cases", "_form"}
    package = Path(emphase.__file__).resolve().parent
    calls, pipeline_imports = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in decision:
                    calls.append((path.name, name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name == "pipeline.py":
                pipeline_imports.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert sorted(calls) == [
        ("emphasis.py", "SemanticForm"),
        ("emphasis.py", "_form"), ("emphasis.py", "_form"),
        ("emphasis.py", "check_blocking"), ("emphasis.py", "check_blocking"),
        ("emphasis.py", "direct_cases"), ("emphasis.py", "direct_cases"),
    ]
    assert "semantic_form" in pipeline_imports
    assert not pipeline_imports & (decision - {"SemanticForm"})


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


def _quoted_names(annotation) -> list:
    """The strings and forward references an annotation holds, at any depth."""
    if isinstance(annotation, (str, typing.ForwardRef)):
        return [annotation]
    return [name for arg in typing.get_args(annotation) for name in _quoted_names(arg)]


def test_record_fields_are_annotated_with_evaluated_types():
    """A quoted NamedTuple field annotation is compiled into a
    ``ForwardRef`` when the class is defined, so only a type that is not
    defined yet, such as a recursive one, is quoted."""
    quoted = set()
    for module_info in pkgutil.iter_modules(emphase.__path__):
        module = importlib.import_module(f"emphase.{module_info.name}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                for field, annotation in cls.__dict__.get("__annotations__", {}).items():
                    if _quoted_names(annotation):
                        quoted.add(f"{module_info.name}.{name}.{field}")
    # each names a recursive type, defined only after the record
    assert quoted == {"scheme.Proposition.args", "spl.SplTerm.slots"}


def test_the_oldest_supported_python_reads_the_data_and_generates():
    """``requires-python`` names 3.10: under it the reader takes every
    shipped data file and ``generate`` writes the golden sentence, from an
    explicit emphasis-q and from a discourse script."""
    python = shutil.which("python3.10")
    if python is None:
        pytest.skip("no python3.10 on PATH")
    src = Path(emphase.__file__).resolve().parent.parent
    data = src / "emphase" / "data"
    # a pyenv shim runs an installed 3.10 only when asked for one
    env = {**os.environ, "PYTHONPATH": str(src), "PYENV_VERSION": "3.10"}
    probe = ("import sys; from pathlib import Path; from emphase import sexpr; "
             "files = [p for p in Path(sys.argv[1]).rglob('*') if p.is_file()]; "
             "[sexpr.read_all(p.read_text(encoding='utf-8')) for p in files]; "
             "print(sys.version_info[:2], len(files))")
    read = subprocess.run([python, "-c", probe, str(data)], env=env,
                          capture_output=True, text=True, timeout=60)
    files = sum(1 for p in data.rglob("*") if p.is_file())
    assert (read.returncode, read.stdout) == (0, f"(3, 10) {files}\n"), read.stderr
    for decision in (["--emphasis-q", "emphatic"],
                     ["--script", str(data / "discourse" / "biography.script")]):
        generate = subprocess.run(
            [python, "-m", "emphase.cli", "generate", "--verb", "schicken",
             "--bindings", str(data / "bindings" / "he-him-invitation.binding"), *decision],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert generate.returncode == 0, generate.stderr
        assert generate.stdout.splitlines() == [
            "(send / directed-action :actor (he / person) :recipient "
            "(him / person :emphasis-q emphatic) :actee (invitation / object))",
            "Er schickt ihm eine Einladung.",
        ]


def test_every_imported_name_is_used():
    """Each name a module of the package imports is read in that module, or
    is one of the package's exports: an import left behind by a change that
    removed its last use fails here."""
    package = Path(emphase.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read)
                   if name not in emphase.__all__]
    assert unused == []
