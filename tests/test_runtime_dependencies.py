"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so every
``repro`` module must import, and the CLI must run, in an interpreter
where numpy and SciPy cannot be imported.  Each check runs in a fresh
subprocess that blocks both packages through ``sys.modules``.

This module needs nothing beyond the package: ``python
tests/test_runtime_dependencies.py`` runs the same checks outside
pytest, against whichever ``repro`` the interpreter imports.
"""

import subprocess
import sys

#: Prepended to every check: numpy and SciPy fail to import.
BLOCK_THIRD_PARTY = (
    "import sys\n"
    "for name in ('numpy', 'scipy'):\n"
    "    sys.modules[name] = None\n"
)

IMPORT_EVERY_MODULE = BLOCK_THIRD_PARTY + (
    "import importlib, pkgutil\n"
    "import repro\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(info.name)\n"
)

RUN_CLI = BLOCK_THIRD_PARTY + (
    "import runpy\n"
    "sys.argv = ['repro', 'machines']\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
)


def _run(source: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, timeout=120)


def test_every_module_imports_without_numpy_or_scipy():
    result = _run(IMPORT_EVERY_MODULE)
    assert result.returncode == 0, result.stderr


def test_cli_runs_without_numpy_or_scipy():
    result = _run(RUN_CLI)
    assert result.returncode == 0, result.stderr
    assert "baseline" in result.stdout


if __name__ == "__main__":
    test_every_module_imports_without_numpy_or_scipy()
    test_cli_runs_without_numpy_or_scipy()
    print("repro imports and runs without numpy or scipy")
