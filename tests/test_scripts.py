"""Smoke test: the scripts under scripts/ run to completion from a checkout."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_pipeline_demo.py"],
        ["scripts/weight_sensitivity.py", "--candidates", "200", "--sets", "40"],
    ],
)
def test_script_exits_0(argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    assert "Traceback" not in result.stderr


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_compiles(mutant):
    """A mutant that only a SyntaxError kills proves nothing: each one, applied to its file's text in memory,
    compiles."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_to_the_checkout_once(mutant):
    """The table cannot rot silently: each old text is still in its file, once, and each named test still exists.
    Running the mutants themselves is ``scripts/mutants.py``, outside this suite."""
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        file, _, name = node.partition("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / file).read_text(encoding="utf-8"), re.M), node
