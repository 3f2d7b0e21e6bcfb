"""Spans around calls into each degprice layer, installed from outside.

``Tracer.install`` wraps the traced functions in memory; no source file
changes.  Modules bind functions at import (``graph`` holds its own
``apsp`` name, ``dynamics`` its own ``evaluate_deviation``), so wrapping
one attribute is not enough: every attribute of every loaded degprice
module that is bound to a traced function object is replaced by the same
wrapper.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out with ``save``.  A span's self time is its duration minus the
durations of its child spans.  Counters are taken from arguments and
results at the same boundaries.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> functions traced in it; "Class.method" names a method
TRACED = {
    "degprice._kernels": ("apsp", "apsp_update_add", "addition_row_sums", "row_sums_with_sentinel"),
    "degprice.graph": ("bfs_distances", "diameter", "OwnedGraph.adjacency_matrix"),
    "degprice.costs": ("agent_cost", "social_cost"),
    "degprice.moves": (
        "evaluate_deviation",
        "best_response_exact",
        "enumerate_single_moves",
        "candidate_targets",
    ),
    "degprice.dynamics": ("run_dynamics",),
    "degprice.oracle": ("equilibrium_census", "optimal_social_cost"),
}


def span_name(module, attr):
    """``degprice._kernels`` + ``apsp`` -> ``kernels.apsp``."""
    layer = module.rsplit(".", 1)[1].lstrip("_")
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def _bytes_computed(counters, name, args, result):
    # the dense kernels compute one int64 value per entry of the n x n matrix
    n = args[0].shape[0]
    counters[f"{name}.bytes_computed"] += 8 * n * n


def _single_moves(counters, name, args, result):
    counters["moves.records"] += len(result)
    counters["moves.improving_records"] += sum(1 for m in result if m.improving)


def _dynamics_run(counters, name, args, result):
    counters["dynamics.activations"] += result.activations
    counters["dynamics.applied_moves"] += len(result.steps)


def _census(counters, name, args, result):
    stages = result.stage_counts
    connected = stages["states"] - stages["disconnected"]
    counters["oracle.states"] += stages["states"]
    counters["oracle.connected_states"] += connected
    counters["oracle.exact_scan_states"] += connected - stages["failed_single_move"]


OBSERVERS = {
    "kernels.apsp_update_add": _bytes_computed,
    "kernels.addition_row_sums": _bytes_computed,
    "moves.enumerate_single_moves": _single_moves,
    "dynamics.run_dynamics": _dynamics_run,
    "oracle.equilibrium_census": _census,
}


class Tracer:
    """Records spans while ``recording`` is true; wrappers pass through otherwise."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.recording = True
        self._stack = []

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at every place its name is bound."""
        wrappers = {}
        for modname, attrs in TRACED.items():
            module = importlib.import_module(modname)
            for attr in attrs:
                name = span_name(modname, attr)
                owner = getattr(module, attr.split(".")[0], None)
                if owner is None:
                    # a function the program no longer has reports zero calls
                    print(f"tracing: {modname}.{attr} not found", file=sys.stderr)
                    continue
                if "." in attr:
                    meth = attr.split(".")[1]
                    setattr(owner, meth, self._wrap(owner.__dict__[meth], name))
                else:
                    # the wrapper keeps the function alive, so its id stays unique
                    wrappers[id(owner)] = self._wrap(owner, name)
        for modname, module in list(sys.modules.items()):
            if modname != "degprice" and not modname.startswith("degprice."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def self_times(self):
        """(calls, self seconds) per span name, over everything recorded."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write the raw spans (name ids, parents, start and end times)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
