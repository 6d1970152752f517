"""The modgrid benchmark: one workload, one seed, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload census_counts --seed 1 --seconds 40 --trace 0

A run first times ``import modgrid`` in several fresh interpreters (setup_s).
It then runs rounds of the workload until ``--seconds`` is used up, each round
in a fresh interpreter so that every cache in the package starts cold, as it
does for every ``modgrid`` command.  A round makes its timed calls, then checks
every result outside the timed region.  With ``--trace 1`` untraced and traced
rounds alternate: the traced ones give the per-layer metrics and their spans
(written to ``.perfbench_out/``), the difference gives ``trace.overhead_s``.

The first stdout line is a header (interpreter, cores, git revision, seed),
then one line per round; the last is ``{"correct", "attempted", "failed",
"metrics"}``.  Times are
medians over rounds.  ``failed / attempted`` is the share of operations that
raised or gave a wrong result.  The package is imported from ``src/`` of the
checkout; without it the run fails with exit code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: The keys of workloads.WORKLOADS, known before the package is imported.
WORKLOAD_NAMES = ["psi_serial", "psi_parallel_resume", "census_counts", "cli_cold"]
#: Fresh interpreters that only import the package, besides one per round.
SETUP_SAMPLES = 9
#: No run may take longer than this, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import modgrid\n"
    "t = time.perf_counter() - t\n"
    "if not modgrid.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'modgrid imported from {modgrid.__file__}, not from {sys.argv[1]}')\n"
    "print(t)\n"
)


class BenchError(Exception):
    pass


def percentile(values: list, q: float) -> float:
    """Percentile with linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_child(argv: list, deadline: float) -> str:
    """Run a fresh interpreter in its own session; return its stdout.

    On timeout the whole session is killed (worker pools included) and waited.
    """
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[:3]} did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ---------------------------------------------------------------------------
# one round, in its own interpreter
# ---------------------------------------------------------------------------


def round_main(workload: str, seed: int, traced: bool, index: int) -> dict:
    t = time.perf_counter()
    import modgrid
    import_s = time.perf_counter() - t
    if not modgrid.__file__.startswith(str(SRC)):
        raise BenchError(f"modgrid imported from {modgrid.__file__}, not from {SRC}")
    import workloads as wl

    make_inputs, run = wl.WORKLOADS[workload]
    rec = wl.Recorder(trace=traced)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        run(rec, make_inputs(seed), scratch)
    if not rec.ops:
        raise BenchError("the round made no operations")
    wall_s = max(o.start + o.seconds for o in rec.ops) - min(o.start for o in rec.ops)
    workers = max([o.attrs.get("workers", 1) for o in rec.ops])
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_kb / 1024,
        "op_p50_ms": percentile([o.seconds for o in rec.ops], 50) * 1000,
        "op_p90_ms": percentile([o.seconds for o in rec.ops], 90) * 1000,
        "attempted": len(rec.ops),
        "failures": rec.failures(),
        "extra": wl.parallel_metrics(rec.ops) if workload == "psi_parallel_resume" else {},
    }
    if traced:
        result["layer"] = wl.layer_metrics(rec.ops)
        trace_file = OUT / f"trace-{workload}-seed{seed}-round{index}.json"
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                          "spans": rec.spans()}))
    return result


# ---------------------------------------------------------------------------
# the run: set-up samples, rounds, medians
# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl

    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    timer = ["-c", IMPORT_TIMER, str(SRC)]
    run_child(timer, deadline)  # compiles the package once; not a sample
    setup = [float(run_child(timer, deadline)) for _ in range(SETUP_SAMPLES)]

    rounds: list = []
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        started = time.monotonic()
        out = run_child([str(Path(__file__)), "--round", str(len(rounds)),
                         "--workload", workload, "--seed", str(seed),
                         "--trace", str(int(traced))], deadline)
        r = json.loads(out.strip().splitlines()[-1])
        r["traced"] = traced
        rounds.append(r)
        print(json.dumps({"round": len(rounds) - 1, "traced": traced, "wall_s": r["wall_s"],
                          "attempted": r["attempted"], "failed": len(r["failures"])}),
              flush=True)
        longest = max(longest, time.monotonic() - started)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.monotonic() - begin + longest > seconds:
            break
        if time.monotonic() + longest > deadline:
            if not enough:
                raise BenchError("not enough time left for the rounds a run needs")
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if not trace:
        values = {
            "wall_s": med(plain, "wall_s"),
            "setup_s": statistics.median(setup + [r["import_s"] for r in rounds]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "op_p50_ms": med(plain, "op_p50_ms"),
            "op_p90_ms": med(plain, "op_p90_ms"),
        }
        units = dict(wl.E2E_METRICS)
        if workload == "psi_parallel_resume":
            units.update(wl.PARALLEL_E2E_METRICS)
            values["parallel_efficiency"] = statistics.median(
                r["extra"]["parallel_efficiency"] for r in plain)
    else:
        values = {k: statistics.median(r["layer"][k] for r in traced_rounds)
                  for k in traced_rounds[0]["layer"]}
        values["trace.overhead_s"] = med(traced_rounds, "wall_s") - med(plain, "wall_s")
        units = dict(wl.LAYER_METRICS)
        if workload == "psi_parallel_resume":
            units.update(wl.PARALLEL_LAYER_METRICS)
            for k in wl.PARALLEL_LAYER_METRICS:
                values[k] = statistics.median(r["extra"][k] for r in traced_rounds)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "modgrid" / "__init__.py").is_file():
        print(f"error: no modgrid package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.round is not None:
            result = round_main(args.workload, args.seed, bool(args.trace), args.round)
        else:
            header = {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0)), "git": git_revision()}
            print(json.dumps({"header": header}), flush=True)
            result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
