"""Every name a module imports is read somewhere in that module.

``__init__.py`` is checked apart: it imports names to re-export them, so
what it imports must be exactly what ``__all__`` lists.  The test
helper ``montecarlo.py`` is checked too.  The imports of the simulator
and of that helper's estimators are also checked to take no transition
law from the chain, and importing the package is checked to load no
thread pool.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import criotq

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "criotq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: The test helper that holds the one-slot Monte Carlo estimators.
MONTECARLO = Path(__file__).resolve().parent / "montecarlo.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finder_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", [*MODULES, MONTECARLO], ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert len(set(imported)) == len(imported)
    assert len(set(criotq.__all__)) == len(criotq.__all__)
    assert set(imported) == set(criotq.__all__)
    assert all(hasattr(criotq, name) for name in criotq.__all__)


#: What the simulator and the estimators may take from ``slot`` and ``chain``:
#: records and the state enumeration.  Every other name there is a transition law.
SIM_RECORDS = {"Action", "Phase", "SlotTransitionKernel", "StateSpace", "enumerate_states"}


def law_imports(source: str) -> list[str]:
    """Package imports of source that could reach a transition law.

    That is a whole package module (``import criotq``, ``from . import
    slot``), a name of ``slot`` or ``chain`` outside SIM_RECORDS, or any
    name of the layers built on them (``metrics``, ``region``, ``cli``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "criotq"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("criotq")):
            module = (node.module or "").split(".")[-1]
            if module in ("", "criotq", "metrics", "region", "cli"):
                found += [alias.name for alias in node.names]
            elif module in ("slot", "chain"):
                found += [alias.name for alias in node.names if alias.name not in SIM_RECORDS]
    return found


def test_law_finder_sees_laws_and_modules():
    source = ("import numpy as np\nfrom . import chain\nfrom .params import PnpModel\n"
              "from .slot import Phase, slot_kernel\nfrom criotq.chain import StateSpace\n"
              "from criotq.chain import build_transition_matrix\nfrom .metrics import evaluate_qos\n")
    assert law_imports(source) == ["chain", "slot_kernel", "build_transition_matrix",
                                   "evaluate_qos"]


def test_simulator_imports_no_transition_law():
    # The simulator and the estimators check the closed forms, so they must not share them.
    for path in (PACKAGE / "simulate.py", MONTECARLO):
        assert law_imports(path.read_text()) == [], path.name


def test_importing_the_package_loads_no_executor():
    # The simulator imports its worker pool where it runs: concurrent.futures
    # loads logging, which would add to the start of every process.
    probe = "import sys, criotq; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=PACKAGE.parent, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
