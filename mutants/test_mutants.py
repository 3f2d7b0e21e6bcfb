"""Each committed mutant is caught by the tests it names.

    python -m pytest mutants -q

Outside ``testpaths``, so Tier-1 does not run it.  Each mutant is applied
to a copy of ``src``, ``tests`` and ``pyproject.toml``, and its tests run
there with ``-x`` in a subprocess, with a fixed hypothesis seed.  pytest
exits 1 when a test failed; 0 (all passed) means the mutant survived,
and any other code means the run itself broke.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "degprice"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_snippet_occurs_once(mutant):
    """A refactor that moves the code fails here instead of testing nothing."""
    assert (SOURCE / mutant.file).read_text().count(mutant.old) == 1


def run_tests(copy, tests):
    """The pytest exit code of ``tests`` run in the repo copy ``copy``."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *tests]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout[-2000:] + proc.stderr


def copy_repo(dest):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def test_unmutated_copy_passes_every_named_test(tmp_path):
    """The control: a killed mutant means the mutant, not the copy, broke."""
    copy_repo(tmp_path)
    code, output = run_tests(tmp_path, sorted({t for m in MUTANTS for t in m.tests}))
    assert code == 0, output


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_mutant_is_killed(mutant, tmp_path):
    copy_repo(tmp_path)
    target = tmp_path / "src" / "degprice" / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
    code, output = run_tests(tmp_path, mutant.tests)
    assert code == 1, f"{mutant.id} survived or broke the run (exit {code}):\n{output}"
