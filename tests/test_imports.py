"""Import hygiene: every name a module or test file imports is used in it,
every public function or class of the package has a caller, and importing
the command-line front end leaves ``numpy.random`` unloaded.

The package's ``__init__.py`` is skipped: its imports are the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in (ROOT / "src" / "metricflow").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported binding that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = names_read(tree)
    return [(line, name) for line, name in imported if name not in used]


def names_read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "np.zeros(parse('1'))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "os"), (5, "dumps")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


# Public names no module of the package reads, kept as reference
# implementations: each names the test that holds the program to it.
ORACLES = (
    ("conformal_lift", "test_acceptance.py::test_criterion_04_divergence_axioms"),
    ("volume_tangent", "test_tensors.py::test_lie_compatibility_with_volume"),
    ("field_from_json", "test_fields.py::test_json_round_trip_bitwise"),
    ("ic_speed_grid_search", "test_seqdemo.py::test_harmonic_mean_vs_grid_search_random"),
)


def test_every_public_definition_has_a_caller():
    defined, read = set(), set()
    for path in FILES:
        if path.parent.name != "metricflow":
            continue
        tree = ast.parse(path.read_text())
        read |= names_read(tree)
        defined |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
    uncalled, oracles = defined - read, {name for name, _ in ORACLES}
    assert not uncalled - oracles, f"no caller: {sorted(uncalled - oracles)}"
    assert not oracles - uncalled, f"oracles the package calls: {sorted(oracles - uncalled)}"


@pytest.mark.parametrize("name, test", ORACLES, ids=[name for name, _ in ORACLES])
def test_each_oracle_is_read_by_its_test(name, test):
    file_name, function = test.split("::")
    tree = ast.parse((ROOT / "tests" / file_name).read_text())
    bodies = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert len(bodies) == 1, test
    assert name in names_read(bodies[0]), f"{test} does not call {name}"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on first use inside a run, not in the process set-up
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, metricflow.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
