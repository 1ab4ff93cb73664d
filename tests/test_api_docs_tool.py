"""The API-doc generator must keep working as the public surface moves."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_generator_runs_and_covers_public_modules(tmp_path):
    """Renders into a temp file (the working tree stays clean) and, via
    ``--check``, fails when the checked-in docs/API.md has drifted."""
    path = tmp_path / "API.md"
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "gen_api_docs.py"),
         "--check", "--out", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    text = path.read_text()
    assert " at 0x" not in text, "per-process address in the rendering"
    for section in ("## `repro`", "## `repro.core`", "## `repro.cluster`",
                    "## `repro.machine`", "## `repro.partition`"):
        assert section in text
    # Key public entry points documented.
    for name in ("run_dons", "run_baseline", "ClusterEngine", "make_scenario",
                 "mbc_bisect", "wasserstein_1d"):
        assert name in text, f"{name} missing from API.md"


def test_all_exports_resolve():
    """Every name in every __all__ must actually exist (release hygiene)."""
    import repro
    packages = [
        "repro", "repro.topology", "repro.traffic", "repro.routing",
        "repro.protocols", "repro.schedulers", "repro.des", "repro.core",
        "repro.cts", "repro.cluster", "repro.partition", "repro.apa",
        "repro.machine", "repro.metrics", "repro.viz", "repro.bench",
    ]
    import importlib
    for name in packages:
        mod = importlib.import_module(name)
        for export in getattr(mod, "__all__", []):
            assert hasattr(mod, export), f"{name}.{export} dangling"
