"""Run one benchmark workload of degprice and print its metrics.

    python3 perfbench/run.py --workload verify-fig2b --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in fresh worker
processes (``worker.py``), one process at a time and with BLAS threads
capped at the core count.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run.  End-to-end
times are scaled to a reference host speed (``at_reference_speed``).  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit and the machine facts.  A record of the run is written under
``perfbench/out/``.  ``--tiny`` shrinks every workload for the self-test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from worker import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a --trace 0 run is this many workers one after another, each set up afresh
SEGMENTS = 7
# seconds the reference loop (worker.reference_seconds) takes at the reference speed
REFERENCE_S = 0.006
CLI_RUNS = 3
DEADLINE_S = 170
FIG2B = SRC / "degprice" / "data" / "fig2b.graph"
FIG2B_NCG_SOCIAL_COST = 760

# spans whose calls and self time are reported; then spans with self time only
CALLS_AND_SELF = (
    "kernels.apsp",
    "kernels.apsp_update_add",
    "kernels.addition_row_sums",
    "kernels.row_sums_with_sentinel",
    "graph.bfs_distances",
    "graph.diameter",
    "graph.adjacency_matrix",
    "costs.agent_cost",
    "costs.social_cost",
    "moves.evaluate_deviation",
    "moves.best_response_exact",
    "moves.enumerate_single_moves",
    "moves.candidate_targets",
)
SELF_ONLY = ("dynamics.run_dynamics", "oracle.equilibrium_census", "oracle.optimal_social_cost")


class BenchError(Exception):
    """The run cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


class Runner:
    """Starts child processes one at a time, all within one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def run(self, cmd):
        """(seconds from spawn to exit, completed process); raises on timeout."""
        remaining = self.deadline - time.monotonic()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cmd[1]} did not finish within the deadline") from exc
        return time.monotonic() - t0, proc

    def worker(self, args, seconds, *extra):
        reference_before = reference_seconds()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
            "--spawned-at", repr(time.monotonic()),
            *(["--tiny"] if args.tiny else []),
            *extra,
        ]  # fmt: skip
        _, proc = self.run(cmd)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_reference_s"] = (reference_before + report["setup_reference_s"]) / 2
        return report

    def cli(self, cmd):
        """Median seconds of CLI_RUNS runs of a degprice CLI command, and its outputs."""
        times, outs = [], []
        for _ in range(CLI_RUNS):
            seconds, proc = self.run([sys.executable, *cmd])
            times.append(seconds)
            outs.append(proc.stdout if proc.returncode == 0 else None)
        return statistics.median(times), outs


def machine_facts(backend):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": backend,
        "DEGPRICE_NO_NUMBA": os.environ.get("DEGPRICE_NO_NUMBA"),
        "DEGPRICE_WORKERS": os.environ.get("DEGPRICE_WORKERS"),
    }


def at_reference_speed(seconds, reference_s):
    """``seconds`` measured while the reference loop took ``reference_s``,
    scaled to a host on which it takes ``REFERENCE_S``.

    The host's speed drifts by up to twice, over seconds to minutes, and
    a whole run can fall in a slow spell; the reference loop slows with
    it, so the scaled time of the same code stays put.
    """
    return seconds * REFERENCE_S / reference_s


def whole_seconds(passes, scaled=True):
    """Seconds of the whole workload: the median pass of each part, summed.

    Pass times are scaled to the reference speed unless ``scaled`` is
    false.  Only passes whose check passed count (all of a part's, if
    none did).
    """
    by_part = defaultdict(list)
    for p in passes:
        by_part[p["part"]].append(p)
    total = 0.0
    for part in by_part.values():
        ok = [p for p in part if p["ok"]] or part
        times = [
            at_reference_speed(p["seconds"], p["reference_s"]) if scaled else p["seconds"]
            for p in ok
        ]
        total += statistics.median(times)
    return total


def end_to_end(runner, args, notes):
    """Time passes in SEGMENTS fresh workers, so set-ups are spread over the run.

    Each worker gets an even share of the run's time that is left.
    """
    reports, passes = [], []
    end = time.monotonic() + args.seconds
    for k in range(SEGMENTS):
        # the last worker makes sure every part of the workload ran at least once
        minimum = max(1, reports[0]["parts"] - len(passes)) if k == SEGMENTS - 1 else 1
        share = max(0.0, end - time.monotonic()) / (SEGMENTS - k)
        report = runner.worker(
            args, share,
            "--first-pass", str(len(passes)), "--min-passes", str(minimum),
        )  # fmt: skip
        reports.append(report)
        passes += report["passes"]
    setups = [at_reference_speed(r["setup_s"], r["setup_reference_s"]) for r in reports]
    metrics = {
        "wall_s": (whole_seconds(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    parts = reports[0]["parts"]
    checked = sum(p["ok"] for p in passes)
    notes["wall_s"] = (
        f"median of {checked} checked passes"
        + (f" per part, summed over {parts} parts" if parts > 1 else "")
        + f"; {whole_seconds(passes, scaled=False):.4g} s unscaled"
    )
    raw_setup = statistics.median(r["setup_s"] for r in reports)
    notes["setup_s"] = f"median of {len(setups)} set-ups; {raw_setup:.4g} s unscaled"
    report = {"backend": reports[0]["backend"], "segments": reports}
    return report, passes, True, metrics


def per_layer(runner, args, notes):
    report = runner.worker(args, args.seconds, "--spans-out", str(record_path(args, "spans-", ".npz")))
    traced = len(report["traced_passes"])
    spans = report["spans"]
    counters = report["counters"]

    def per_pass(x):
        """Per pass of the whole workload, that is per ``parts`` passes."""
        return x * report["parts"] / traced

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in CALLS_AND_SELF + SELF_ONLY:
        calls, self_s = spans.get(name, (0, 0.0))
        if name in CALLS_AND_SELF:
            metrics[f"{name}.calls"] = (per_pass(calls), "count")
        metrics[f"{name}.self_s"] = (per_pass(self_s), "s")
    for name in ("kernels.apsp_update_add", "kernels.addition_row_sums"):
        metrics[f"{name}.bytes_computed"] = (per_pass(counters.get(f"{name}.bytes_computed", 0)), "bytes")
    calls = {name: spans.get(name, (0, 0.0))[0] for name in CALLS_AND_SELF}
    metrics["moves.subsets_per_best_response"] = (
        ratio(calls["moves.evaluate_deviation"], calls["moves.best_response_exact"]),
        "calls/call",
    )
    metrics["moves.improving_share"] = (
        ratio(counters.get("moves.improving_records", 0), counters.get("moves.records", 0)),
        "ratio",
    )
    activations = counters.get("dynamics.activations", 0)
    applied = counters.get("dynamics.applied_moves", 0)
    metrics["dynamics.activations"] = (per_pass(activations), "count")
    metrics["dynamics.applied_moves"] = (per_pass(applied), "count")
    metrics["dynamics.applied_share"] = (ratio(applied, activations), "ratio")
    metrics["oracle.states"] = (per_pass(counters.get("oracle.states", 0)), "count")
    metrics["oracle.exact_scan_share"] = (
        ratio(counters.get("oracle.exact_scan_states", 0), counters.get("oracle.connected_states", 0)),
        "ratio",
    )

    import_s, _ = runner.cli(["-c", "import degprice.cli"])
    run_s, outs = runner.cli(["-m", "degprice.cli", "cost", str(FIG2B)])
    cli_ok = all(social_cost_of(out) == FIG2B_NCG_SOCIAL_COST for out in outs)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.run_s"] = (run_s, "s")

    untraced_s = whole_seconds(report["passes"])
    metrics["trace.overhead_share"] = (
        (whole_seconds(report["traced_passes"]) - untraced_s) / untraced_s,
        "ratio",
    )
    notes["trace.overhead_share"] = f"{traced} traced against {len(report['passes'])} untraced passes"
    if not cli_ok:
        notes["cli.run_s"] = "degprice cost on fig2b failed or gave a wrong social cost"
    return report, report["passes"] + report["traced_passes"], cli_ok, metrics


def social_cost_of(cost_output):
    """The social cost a ``degprice cost`` run printed, or None."""
    try:
        return json.loads(cost_output)["social_cost"]
    except (TypeError, ValueError, KeyError):
        return None


def record_path(args, prefix, suffix):
    tiny = "-tiny" if args.tiny else ""
    return OUT / f"{prefix}{args.workload}-seed{args.seed}-trace{args.trace}{tiny}{suffix}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "degprice" / "__init__.py").is_file():
        print(f"error: no degprice sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    notes = {}
    try:
        measure = per_layer if args.trace else end_to_end
        report, passes, extra_ok, metrics = measure(Runner(), args, notes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not p["ok"] for p in passes)
    facts = machine_facts(report["backend"])
    result = {
        "correct": failed == 0 and extra_ok,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "machine": facts, "notes": notes, "worker": report,
              "result": result}  # fmt: skip
    record_path(args, "", ".json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {value:>16.6g} {unit:10s} {note}")
    if not args.trace:
        note = f"{failed} of {len(passes)} passes, carried as 'failed' and 'attempted'"
        print(f"  {'failed_share':44s} {failed / len(passes):>16.6g} {'ratio':10s} {note}")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
