"""Machine and environment record, and the cold-start floors.

Cold processes run the interpreter that runs the benchmark, with
``PYTHONPATH`` set to the checkout's ``src`` and their bytecode cache
under the benchmark's work directory, so that after one warm-up process
they load compiled modules, as an installed package would.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

EMPHASE_MODULES = ("emphase", "emphase.errors", "emphase.sexpr", "emphase.scheme",
                   "emphase.roles", "emphase.emphasis", "emphase.lexicon",
                   "emphase.discourse", "emphase.spl", "emphase.realize",
                   "emphase.pipeline", "emphase.cli")


def child_env(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env["PYTHONPATH"] = str(root / "src")
    return env


def timed_run(argv: list[str], root: Path, env: dict[str, str]) -> tuple[int, subprocess.CompletedProcess]:
    """Wall time in ns of one process, from start to exit."""
    t0 = time.perf_counter_ns()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=60)
    return time.perf_counter_ns() - t0, done


def _median_ms(argv, root, env, reps) -> float:
    return statistics.median(timed_run(argv, root, env)[0] for _ in range(reps)) / 1e6


def importtime(root: Path, env: dict[str, str], reps: int = 3) -> dict[str, float]:
    """Median self import time in ms of each emphase module, and the
    cumulative time of the whole tree ``import emphase.cli`` pulls in."""
    samples: dict[str, list[float]] = {}
    for _ in range(reps):
        _, done = timed_run([sys.executable, "-X", "importtime", "-c", "import emphase.cli"],
                            root, env)
        seen: dict[str, float] = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[12:].split("|")
            if not self_us.strip().isdigit():
                continue
            module = name.strip()
            if module in EMPHASE_MODULES:
                seen[f"import.{module}_self_ms"] = int(self_us) / 1000
            if module == "emphase.cli" and name == f" {module}":  # top level
                seen["import.emphase_tree_ms"] = int(cumulative_us) / 1000
        for key, value in seen.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def record(root: Path, work: Path, reps: int = 5) -> dict:
    """Environment facts and cold floors, measured now."""
    env = child_env(root, work)
    floor = _median_ms([sys.executable, "-c", "pass"], root, env, reps)
    import_ms = _median_ms([sys.executable, "-c", "import emphase"], root, env, reps)
    _, probe = timed_run([sys.executable, "-c", "import sys; print('certifi' in sys.modules)"],
                         root, env)
    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python_floor_ms": floor,
        "import_emphase_ms": import_ms,
        "certifi_imported_at_start": probe.stdout.strip() == "True",
    }
    if record["certifi_imported_at_start"]:
        record["note"] = ("a site .pth file imports certifi at interpreter start; its cost is "
                          "part of every cold floor and is recorded, not attributed to emphase")
    return record
