"""The layer boundaries the repo benchmark wraps still exist.

``perfbench/spans.py`` times the program by replacing module
attributes -- ``compile.compiled_runner``, ``service.app.cache_key``,
``campaign._collect_parallel`` and the rest -- with span recorders,
and its ``install`` raises ``AttributeError`` when one of them is gone.
Each check runs in a fresh subprocess, because ``install`` patches
the modules it wraps for the rest of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys\n"
    "sys.path.insert(0, {perfbench!r})\n"
    "{before}"
    "import spans\n"
    "spans.install(spans.SpanRecorder())\n"
    "import importlib\n"
    "for module, attr, *_ in spans._FUNCTIONS:\n"
    "    wrapped = getattr(importlib.import_module(module), attr)\n"
    "    assert hasattr(wrapped, '__wrapped__'), (module, attr)\n"
    "print('installed', len(spans._ORIGINAL))\n"
)


def _install(before: str = "") -> subprocess.CompletedProcess:
    source = INSTALL.format(perfbench=str(ROOT / "perfbench"), before=before)
    # No bytecode is written next to the benchmark's files.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=env)


def test_every_wrapped_boundary_exists():
    result = _install()
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("installed ")


def test_a_renamed_boundary_fails_the_install():
    result = _install(
        "import repro.uarch.compile as compile_mod\n"
        "del compile_mod.compiled_runner\n"
    )
    assert result.returncode != 0
    assert "AttributeError" in result.stderr
    assert "compiled_runner" in result.stderr
