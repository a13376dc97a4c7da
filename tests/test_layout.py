"""Module layout: the trial path does not depend on the dense reference,
and README.md documents the config schema field for field.

The package's source files are parsed, not imported or run, so a
function-local import counts as much as a module-level one.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import ddlink_sim
from ddlink_sim.config import SystemConfig

PACKAGE_DIR = Path(ddlink_sim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_dense_reference_has_no_module_of_its_own():
    assert not (PACKAGE_DIR / "grids.py").exists()


def test_readme_config_table_lists_every_field_in_order():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert documented == [field.name for field in dataclasses.fields(SystemConfig)]
