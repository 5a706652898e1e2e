"""One workload in one fresh process: set up, then run passes over its items.

    python bench/child.py --workload NAME --seed N --seconds S --mode setup|run|trace

Prints ``READY`` once set-up is done (the parent times process start until
that line), and in ``run`` / ``trace`` mode a final ``RESULT <json>`` line.

``run`` makes ``ceil(--seconds / pass_s)`` passes, where ``pass_s`` is the
workload's pass time on the nominal host.  ``trace`` installs the tracer
before set-up, then times one pass untraced and one pass traced; the
difference is the tracing overhead.  Both check that every pass
gives each item the same verdict and the same exact node count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

from hostspeed import reference_ms

ITEM_LIMIT_S = 30
# no new item starts this long after --seconds ran out
OVERRUN_S = 60


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_LIMIT_S} s")


def run_pass(items, recorder, tracer, pass_no: int, deadline: float) -> list:
    """Run every item once, one record each:
    [ms, status, right, fingerprint, reference ms before, reference ms after].

    A collection before each item, outside its timing, keeps one item's
    garbage from being collected (and timed) inside the next one.  The
    reference loops (see hostspeed.py) are outside the timing too.
    """
    from resq.errors import ResourceLimitError

    from workloads import ItemFailed

    records = []
    for index, (name, fn) in enumerate(items):
        if time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.item = (pass_no, index)
        mark = len(recorder.budgets)
        status, right = "ok", False
        gc.collect()
        ref_before = reference_ms()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        start = time.perf_counter()
        try:
            verdict, right = fn()
        except ResourceLimitError:
            status, verdict = "budget", "budget"
        except ItemTimeout:
            status, verdict = "timeout", "timeout"
        except ItemFailed as exc:
            status, verdict = "failed", str(exc)
        except Exception as exc:  # any other error is a failed item, not a crash
            status, verdict = "raised", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed_ms = (time.perf_counter() - start) * 1000
        ref_after = reference_ms()
        nodes = recorder.used_since(mark) if len(recorder.budgets) > mark else None
        fingerprint = f"{name}: {verdict} nodes={nodes}"
        records.append([elapsed_ms, status, bool(right), fingerprint, ref_before, ref_after])
    return records


def fingerprints_agree(passes: list) -> bool:
    first = [r[3] for r in passes[0]]
    return all([r[3] for r in p] == first[: len(p)] for p in passes[1:])


def digest(records) -> str:
    return hashlib.sha256("\n".join(r[3] for r in records).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    from tracer import BudgetRecorder, Tracer

    import workloads

    recorder = BudgetRecorder()
    recorder.install()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(recorder)
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](root, args.seed)
    first = workload.items(0)
    print("READY", flush=True)
    if args.mode == "setup":
        close(workload)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    result: dict = {}
    try:
        if args.mode == "run":
            # a fixed pass count, so every run (and every commit) has the same
            # samples and the tail percentile picks the same rank
            count = max(1, math.ceil(args.seconds / workload.pass_s))
            deadline = time.perf_counter() + args.seconds + OVERRUN_S
            passes = [run_pass(first, recorder, None, 0, deadline)]
            while len(passes) < count:
                items = workload.items(len(passes))
                passes.append(run_pass(items, recorder, None, len(passes), deadline))
        else:
            tracer.uninstall()
            deadline = time.perf_counter() + args.seconds + OVERRUN_S
            start = time.perf_counter()
            plain = run_pass(first, recorder, None, 0, deadline)
            result["untraced_pass_s"] = time.perf_counter() - start
            tracer.install()
            if hasattr(workload, "traced"):
                workload.traced = True
            start = time.perf_counter()
            traced = run_pass(first, recorder, tracer, 1, deadline + OVERRUN_S)
            result["traced_pass_s"] = time.perf_counter() - start
            tracer.uninstall()
            passes = [plain, traced]
            result["summary"] = tracer.summary()
            if hasattr(workload, "trace_files"):
                result["children"] = [
                    json.loads(p.read_text()) for p in workload.trace_files if p.exists()
                ]
                result["item_ms"] = {
                    workload.metric_of[name]: record[0]
                    for (name, _), record in zip(first, plain)
                    if name in workload.metric_of
                }
                result.update(workload.start_costs())
            if args.spans:
                Path(args.spans).write_text(json.dumps(tracer.span_records()))
    finally:
        close(workload)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["passes"] = passes
    result["deterministic"] = fingerprints_agree(passes)
    result["digest"] = digest(passes[0])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def close(workload) -> None:
    if hasattr(workload, "close"):
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
