"""One workload in a fresh process: set up, time passes, report JSON.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload census-n5 --seed 1 --seconds 30 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

``setup_s`` runs from the parent's spawn time (``time.monotonic`` is one
clock for every process of the machine) to the end of set-up, so it
covers interpreter start, imports, input building and cache filling.

Passes ``--first-pass``, ``--first-pass + 1``, ... run while the next
one is expected to end within ``--seconds``, and at least
``--min-passes`` of them run.  With ``--trace 1`` untraced passes get
``UNTRACED_SHARE`` of the time and cover every part of the workload,
then the same passes run again traced, so their times also give the
tracing overhead.

A fixed pure-Python loop is timed right before and right after every
pass, and right after set-up (``reference_seconds``).  The host's speed
drifts, and the loop's time tracks it, so ``run.py`` can scale each time
to one reference speed.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback

# share of --seconds for untraced passes in a --trace 1 run
UNTRACED_SHARE = 0.4
# iterations of the reference loop
REFERENCE_LOOPS = 100_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--first-pass", type=int, default=0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans-out", default=None, help="file for the raw spans of --trace 1")
    return p.parse_args(argv)


def reference_seconds():
    """Seconds of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def run_passes(workload, first, budget, minimum=1, tracer=None, count=None):
    """Time passes ``first``, ``first + 1``, ...; returns one record per pass.

    Without ``count``, at least ``minimum`` passes run, and more start
    while the longest pass so far still fits in ``budget`` seconds.
    Checks run untimed, with tracing paused.
    """
    records = []
    begin = time.perf_counter()
    longest = 0.0
    done = 0
    while True:
        if count is not None:
            if done >= count:
                break
        elif done >= minimum and time.perf_counter() - begin + longest > budget:
            break
        i = first + done
        gc.collect()
        reference_before = reference_seconds()
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception:  # a raising pass is a failed pass, not a crashed run
            out, problems = None, [traceback.format_exc()]
        else:
            problems = None
        seconds = time.perf_counter() - t0
        reference_s = (reference_before + reference_seconds()) / 2
        longest = max(longest, seconds)
        if problems is None:
            if tracer is not None:
                tracer.recording = False
            try:
                problems = workload.check(out)
            except Exception:
                problems = [traceback.format_exc()]
            if tracer is not None:
                tracer.recording = True
        for line in problems:
            print(f"pass {i} failed: {line}", file=sys.stderr)
        records.append({
            "part": i % workload.parts,
            "seconds": seconds,
            "reference_s": reference_s,
            "ok": not problems,
        })  # fmt: skip
        done += 1
    return records


def main(argv=None):
    args = parse_args(argv)
    from degprice import _kernels
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    # BACKEND names the kernel implementation; it is absent once there is only one
    backend = getattr(_kernels, "BACKEND", None)
    report = {
        "setup_s": time.monotonic() - args.spawned_at,
        "setup_reference_s": reference_seconds(),
        "backend": backend,
        "parts": workload.parts,
    }
    if args.trace:
        from tracing import Tracer

        untraced = run_passes(
            workload, args.first_pass, args.seconds * UNTRACED_SHARE, minimum=workload.parts
        )
        report["peak_rss_mb"] = peak_rss_mb()
        tracer = Tracer()
        tracer.install()
        traced = run_passes(workload, args.first_pass, None, tracer=tracer, count=len(untraced))
        report["passes"] = untraced
        report["traced_passes"] = traced
        report["spans"] = tracer.self_times()
        report["counters"] = dict(tracer.counters)
        if args.spans_out:
            tracer.save(args.spans_out)
    else:
        report["passes"] = run_passes(
            workload, args.first_pass, args.seconds, minimum=args.min_passes
        )
        report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


def peak_rss_mb():
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
