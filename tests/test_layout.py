"""Module layout: the trial path does not depend on the dense reference,
importing the package loads no process-pool machinery, README.md and
the config's signature list the config schema field for field, the
test settings reject a mistyped marker, and the in-process A/B tool
runs.

The import-graph checks parse the package's source files rather than
import them, so a function-local import counts as much as a
module-level one.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ddlink_sim
from ddlink_sim.config import SystemConfig

PACKAGE_DIR = Path(ddlink_sim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
TRIAL_AB = README.parent / "tools" / "trial_ab.py"
FAST_PATH = ("channel", "equalizer", "noma", "simkit")


def package_imports(module: str) -> set:
    """Names of the package modules that `module` imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ddlink_sim":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "ddlink_sim":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                found.add(parts[0])
            else:
                # `from . import x`: x is a module or a name of the root.
                found.update(
                    a.name if (PACKAGE_DIR / f"{a.name}.py").exists() else "__init__"
                    for a in node.names
                )
    return found


@pytest.mark.parametrize("module", ["equalizer", "noma"])
def test_leaf_modules_import_no_package_module(module):
    assert package_imports(module) == set()


def test_channel_imports_only_config():
    assert package_imports("channel") == {"config"}


@pytest.mark.parametrize("module", FAST_PATH)
def test_fast_path_does_not_import_validation(module):
    assert "validation" not in package_imports(module)


def test_package_import_loads_no_pool_machinery():
    # A fresh interpreter, so no other test's imports leak in.
    probe = (
        "import sys, ddlink_sim; "
        "print(*(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_dense_reference_has_no_module_of_its_own():
    assert not (PACKAGE_DIR / "grids.py").exists()


def test_readme_config_table_lists_every_field_in_order():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert documented == [field.name for field in dataclasses.fields(SystemConfig)]


def test_config_signature_lists_every_field_in_order():
    names = [field.name for field in dataclasses.fields(SystemConfig)]
    assert list(inspect.signature(SystemConfig).parameters) == names


def test_mistyped_marker_fails_collection(tmp_path):
    # Without the warnings plugin, filterwarnings cannot turn the
    # unknown-marker warning into an error: only strict_markers can.
    test_file = tmp_path / "test_mistyped.py"
    test_file.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    argv = ["-p", "no:warnings", "-p", "no:cacheprovider", "-c", str(PYPROJECT), str(test_file)]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == pytest.ExitCode.INTERRUPTED, done.stdout
    assert "'slwo' not found in `markers`" in done.stdout


def test_trial_ab_against_itself_finds_no_differing_row():
    root = str(README.parent)
    done = subprocess.run(
        [sys.executable, str(TRIAL_AB), root, root, "--reps", "2", "--trials", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["paper-hm-sweep", "lm-crowd", "big-frame-outage"]
    assert all(": 0 of 2 summaries differ;" in line for line in lines), done.stdout
    assert all("; largest relative difference 0;" in line for line in lines), done.stdout
