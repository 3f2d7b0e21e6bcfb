"""What the benchmark under ``perfbench/`` reaches of the program still works.

The benchmark runs from its own directory and changes only with its
own pull requests, so a name it calls that the program drops breaks it
silently until then.  Every part of every workload runs here in-process
at its tiny size and must pass its own check; every ``Class.method``
the tracer wraps must exist, since ``Tracer.install`` reads it from the
class's ``__dict__``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_tiny_workload_part_passes_its_check(name):
    workload = workloads.WORKLOADS[name](seed=3, tiny=True)
    for i in range(workload.parts):
        assert workload.check(workload.run(i)) == [], (name, i)


def test_every_traced_method_exists():
    methods = [(m, a) for m, attrs in tracing.TRACED.items() for a in attrs if "." in a]
    assert methods
    for modname, attr in methods:
        cls, meth = attr.split(".")
        assert meth in vars(getattr(importlib.import_module(modname), cls)), f"{modname}.{attr}"
