"""resq benchmark: one workload, one seed, printed as one JSON line.

    python3 bench/run.py --workload concrete|represent|search|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``, and
nothing needs installing.  Every workload runs in fresh child processes
(``bench/child.py``), so lazy caches and peak memory belong to that workload
alone; ``RESQ_NODE_BUDGET`` is removed from their environment and every
search gets an explicit budget instead.

``--trace 0`` reports the end-to-end metrics.  Set-up (process start until
the inputs exist and the caches are warm) is timed in ``SETUPS`` separate
children, the measuring one included, and reported as their median.  The
measuring child then makes about ``--seconds`` seconds of whole passes over
the workload's items.  Set-up and item times are scaled to a nominal host
speed (``hostspeed.py``); the info line keeps the raw median as well.

``--trace 1`` reports the per-layer metrics from one traced set-up and one
traced pass, plus the tracing overhead: the traced pass minus an untraced
pass in the same process, both scaled to the nominal host speed.  The spans
themselves are written to ``.bench_out/``.

The last line of standard output is the result; the line before it records
the environment (Python version, cores, git commit), the pass count, the
sample count behind the tail percentile and the verdict fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_REF_MS, reference_ms, scaled
from tracer import merge

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("concrete", "represent", "search", "cli")
SETUPS = 3
RUN_TIMEOUT_S = 170

# spans whose self time is a per-layer metric, named "<span>.self_s"
SELF_TIME = (
    "algebra.close_relation_family",
    "algebra.algebra_of_relations",
    "algebra.parse_algebra",
    "algebra.validate",
    "completion.closed_sets",
    "completion.build_quantale",
    "completion.check_quantale_laws",
    "completion.quantale_residuals",
    "completion.embed",
    "relrep.generators",
    "relrep.hat",
    "relrep.hat_isomorphism_check",
    "relrep.unitalize",
    "verifier.check_representation",
    "verifier.search",
    "lambek.prove",
    "lambek.counter",
    "pointalg.build_point_algebra",
)
COUNTS = (
    "relations.compose.calls",
    "relations.lres.calls",
    "relations.rres.calls",
    "relations.subset.calls",
    "algebra.closure.members",
    "completion.closed_sets.count",
    "completion.quantale.size",
    "relrep.hat.calls",
    "relrep.unitalize.fired",
    "relrep.base.size",
    "verifier.search.nodes",
    "pointalg.frp_probe.nodes",
    "lambek.prove.nodes",
    "lambek.counter.models",
    "lambek.evaluate.calls",
)
MODULES = ("algebra", "completion", "relrep", "verifier", "pointalg", "lambek")
CLI_SUBCOMMANDS = (
    "decide", "complete", "represent", "verify", "search", "pointalg",
    "lambek_prove", "lambek_counter", "lambek_eval",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RESQ_NODE_BUDGET", None)
    # one string-hash layout for every run: dict and set timings then differ
    # between runs only by what the run itself does
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, mode: str, deadline: float, extra=()) -> tuple[float, dict | None]:
    """Start a child, time it until READY, and return (scaled set-up s, result)."""
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, *extra,
    ]
    ref_before = reference_ms()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = scaled(time.perf_counter() - start, ref_before, reference_ms())
        if line.strip() != "READY":
            raise BenchError(f"{mode} child did not finish set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{mode} child printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def tally(records) -> tuple[int, int, int]:
    attempted = len(records)
    failed = sum(1 for r in records if r[1] != "ok")
    wrong = sum(1 for r in records if r[1] == "ok" and not r[2])
    return attempted, failed, wrong


def item_ms(record) -> float:
    """An item's time scaled to the nominal host speed."""
    return scaled(record[0], record[4], record[5])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(args, deadline: float) -> tuple[dict, dict, list]:
    setups = [run_child(args, "setup", deadline)[0] for _ in range(SETUPS - 1)]
    setup_s, result = run_child(args, "run", deadline)
    setups.append(setup_s)
    passes = result["passes"]
    records = [r for p in passes for r in p]
    attempted, failed, wrong = tally(records)
    latencies = [item_ms(r) for r in records]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": ((attempted - failed) / (sum(latencies) / 1000), "1/s"),
        "verdict_ms_p50": (statistics.median(latencies), "ms"),
        "verdict_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "right_verdict_share": ((attempted - wrong) / attempted, "ratio"),
        "completed_share": ((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "setup_samples_s": setups,
        "raw_ms_p50": statistics.median(r[0] for r in records),
        "reference_ms_p50": statistics.median(r[4] for r in records),
        "nominal_reference_ms": NOMINAL_REF_MS,
        "passes": len(result["passes"]),
        "samples": attempted,
        "tail_percentile": tail_pct,
        "wrong_verdicts": wrong,
        "failed": failed,
        "failures": sorted({r[3] for r in records if r[1] != "ok"}),
        "wrong": sorted({r[3] for r in records if r[1] == "ok" and not r[2]}),
        "deterministic": result["deterministic"],
        "fingerprint": result["digest"],
    }
    return metrics, info, records


def per_layer(args, deadline: float) -> tuple[dict, dict, list]:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
    _, result = run_child(args, "trace", deadline, ("--spans", str(spans)))
    summary = merge([result["summary"], *result.get("children", [])])
    counts, own, total = summary["counts"], summary["self_s"], summary["total_s"]

    metrics = {name: (counts.get(name, 0), "count") for name in COUNTS}
    kernel = counts.get("algebra.closure.kernel_calls", 0)
    metrics["algebra.closure.useful_ratio"] = (
        counts.get("algebra.closure.new_members", 0) / kernel if kernel else 0.0, "ratio"
    )
    metrics["relations.canonical_s"] = (total.get("relations.canonical", 0.0), "s")
    for span in SELF_TIME:
        metrics[f"{span}.self_s"] = (own.get(span, 0.0), "s")
    for module in MODULES:
        value = sum(v for span, v in own.items() if span.startswith(module + "."))
        metrics[f"{module}.self_s"] = (value, "s")
    metrics["cli.interpreter_start_ms"] = (result.get("cli.interpreter_start_ms", 0.0), "ms")
    metrics["cli.import_ms"] = (result.get("cli.import_ms", 0.0), "ms")
    cli_ms = result.get("item_ms", {})
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_ms"] = (cli_ms.get(sub, 0.0), "ms")
    plain, records = result["passes"]
    overhead_ms = sum(map(item_ms, records)) - sum(map(item_ms, plain))
    metrics["trace.overhead_s"] = (overhead_ms / 1000, "s")

    attempted, failed, wrong = tally(records)
    info = {
        "untraced_pass_s": result["untraced_pass_s"],
        "traced_pass_s": result["traced_pass_s"],
        "samples": attempted,
        "wrong_verdicts": wrong,
        "failed": failed,
        "deterministic": result["deterministic"],
        "fingerprint": result["digest"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, info, records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/resq/__init__.py", "tests/data/cond34_ledger.json", "tests/test_lambek.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a resq checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            metrics, info, records = per_layer(args, deadline)
        else:
            metrics, info, records = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, wrong = tally(records)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0 and info["deterministic"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
