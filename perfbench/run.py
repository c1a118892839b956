"""Benchmark for raagnorm: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file). The library is imported from ``src/`` of the same checkout; nothing
is installed. One single-threaded closed-loop caller runs an untimed
warm-up cycle, then whole cycles of cases for at most ``--seconds``. With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` a fixed set of cases is run untraced and then traced (spans
wrapped around the library's public functions from outside) and the
per-layer metrics are reported. Run records and spans go to
``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 15
CLI_REPEATS = 5
TAIL_BEYOND = 10
# Every slot of a cycle runs at least TAIL_BEYOND + 1 times, so the tail
# percentile always falls among instances of the costliest slot instead of
# moving between slots as the number of cycles that fit changes.
MIN_CYCLES = TAIL_BEYOND + 1

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import raagnorm\n"
    "print(time.perf_counter() - t)\n"
    "print(raagnorm.__file__)\n"
)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_import_s():
    """Seconds a fresh interpreter spends in ``import raagnorm``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, where = proc.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported raagnorm from {where}, not {SRC}")
    return float(seconds)


def set_up(workload, seed):
    """(seconds, inputs): ``import raagnorm`` in a fresh interpreter plus
    building the workload's inputs from the seed."""
    import_s = child_import_s()
    t0 = time.perf_counter()
    inputs = workload.build(seed)
    return import_s + time.perf_counter() - t0, inputs


def wall_s(code):
    """Wall seconds of one ``python -c code`` child, start to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def tail(times):
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it; the maximum if there are fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_case(run, case):
    """(elapsed ns, raw answer or the unexpected exception)."""
    t0 = time.perf_counter_ns()
    try:
        raw = run(case)
    except Exception as exc:  # an unexpected error is a failed case, not a crash
        raw = exc
    return time.perf_counter_ns() - t0, raw


def failure_of(workload, case, raw):
    if isinstance(raw, Exception):
        return "unexpected " + "".join(traceback.format_exception_only(raw)).strip()
    return workload.check(case, raw)


def run_cycle(workload, inputs, c, times, failures):
    """Run cycle ``c`` of the workload, appending case times and failures."""
    for i in range(c * workload.cycle, (c + 1) * workload.cycle):
        case = workload.case(inputs, i)
        ns, raw = run_case(workload.run, case)
        times.append(ns)
        reason = failure_of(workload, case, raw)
        if reason:
            failures.append(f"case {i}: {reason}")


def timed(workload, inputs, seconds, set_up_again):
    """(case ns, failures, warm-up cases, set-up seconds): one untimed
    warm-up cycle, so that lazy imports and first-call work are done before
    timing, then whole cycles of cases, closed loop, until the next would
    overrun ``seconds`` (but at least MIN_CYCLES cycles). The warm-up's
    failures count too. Between cycles the set-up is repeated
    SETUP_REPEATS - 1 times, spread over the run, so that set-up time is
    sampled over the same stretch of machine time as the cases."""
    warm, failures = [], []
    run_cycle(workload, inputs, 0, warm, failures)
    times, setups = [], []
    start = time.perf_counter()
    for cycles in itertools.count(1):
        cycle_start = time.perf_counter()
        run_cycle(workload, inputs, cycles, times, failures)
        now = time.perf_counter()
        done = cycles >= MIN_CYCLES and now + (now - cycle_start) > start + seconds
        while len(setups) < SETUP_REPEATS - 1 and (
                done or now - start >= (len(setups) + 1) * seconds / SETUP_REPEATS):
            setups.append(set_up_again())
        if done:
            return times, failures, len(warm), setups


def end_to_end(workload, inputs, seconds, setup_s, set_up_again):
    times, failures, warm, setups = timed(workload, inputs, seconds, set_up_again)
    setups.insert(0, setup_s)
    n = len(times)
    value, pct, beyond = tail(times)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cases_per_s": (n / (sum(times) / 1e9), "1/s"),
        "case_ms_p50": (statistics.median(times) / 1e6, "ms"),
        "case_ms_tail": (value / 1e6, "ms"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    slot_ms = [statistics.median(times[s::workload.cycle]) / 1e6 for s in range(workload.cycle)]
    detail = {"cases": n, "warm_up_cases": warm, "cycles": n // workload.cycle,
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "failure_ratio": len(failures) / (n + warm), "setup_runs_s": setups,
              "slot_ms_p50": slot_ms}
    return n + warm, failures, metrics, detail


def one_pass(workload, run, cases, tracer=None):
    """(summed case ns, outcome per case or None, failure reason per case)."""
    total, outcomes, reasons = 0, [], []
    for i, case in enumerate(cases):
        if tracer is None:
            ns, raw = run_case(run, case)
        else:
            with tracer.case(i):
                ns, raw = run_case(run, case)
        total += ns
        reason = failure_of(workload, case, raw)
        reasons.append(reason)
        outcomes.append(None if reason else workload.outcome(case, raw))
    return total, outcomes, reasons


def traced(workload, inputs, seconds, seed):
    """Untraced and traced passes over the same cases, in rounds that
    alternate which pass goes first. Round r takes the r-th block of
    ``trace_cases`` cases, so rounds do not repeat one another's inputs."""
    import tracing

    run = getattr(workload, "run_in_process", workload.run)

    def block(r):
        return [workload.case(inputs, r * workload.trace_cases + i)
                for i in range(workload.trace_cases)]

    # A first untraced pass warms the interpreter up, so that neither side of
    # the overhead ratio pays for it; its failures count like any other.
    cases = block(0)
    _, _, reasons = one_pass(workload, run, cases)
    failures = [f"warm-up case {i}: {reason}" for i, reason in enumerate(reasons) if reason]
    attempted, rounds = len(cases), []
    first = None
    start = time.perf_counter()
    for r in itertools.count():
        cases = block(r + 1)
        round_start = time.perf_counter()
        tracer = tracing.Tracer()

        def traced_pass():
            with tracing.installed(tracer):
                return one_pass(workload, run, cases, tracer)

        if r % 2:
            traced_ns, got, reasons = traced_pass()
            plain_ns, plain, plain_reasons = one_pass(workload, run, cases)
        else:
            plain_ns, plain, plain_reasons = one_pass(workload, run, cases)
            traced_ns, got, reasons = traced_pass()
        for i, reason in enumerate(plain_reasons):
            if reason:
                failures.append(f"untraced case {i}: {reason}")
        for i, reason in enumerate(reasons):
            if reason is None and plain[i] is not None and got[i] != plain[i]:
                reason = "traced result differs from the untraced one"
            if reason:
                failures.append(f"traced case {i}: {reason}")
        attempted += 2 * len(cases)
        rounds.append((tracing.self_times(tracer.spans), traced_ns / plain_ns))
        if first is None:
            stdout_bytes = 0
            if workload.name == "cli_oneshot":
                stdout_bytes = sum(len(o[1].encode("utf-8")) for o in got if o is not None)
            first = (tracer, stdout_bytes)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    tracer, stdout_bytes = first
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    metrics = {}
    for name in tracing.SPAN_NAMES:
        selfs = [r[0].get(name, (0, 0))[0] for r in rounds]
        metrics[f"{name}.self_s"] = (statistics.median(selfs) / 1e9, "s")
        metrics[f"{name}.calls"] = (rounds[0][0].get(name, (0, 0))[1], "count")
    for name, count in tracer.counts.items():
        metrics[name] = (count, "count")
    for name in ("complexes.is_chordal", "complexes.induced"):
        metrics[f"{name}.calls_per_case"] = (metrics[f"{name}.calls"][0] / len(cases), "ratio")
    bare = statistics.median(wall_s("pass") for _ in range(CLI_REPEATS))
    with_import = statistics.median(wall_s("import raagnorm.cli") for _ in range(CLI_REPEATS))
    metrics["cli.interpreter_s"] = (bare, "s")
    metrics["cli.import_s"] = (with_import - bare, "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(r[1] for r in rounds), "ratio")
    detail = {"cases": len(cases), "rounds": len(rounds)}
    return attempted, failures, metrics, detail


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "commit": commit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "raagnorm" / "__init__.py").is_file():
        print(f"perfbench: no raagnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import raagnorm

    if not Path(raagnorm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: raagnorm imported from {raagnorm.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, ROOT, workdir, child_env())
        setup_s, inputs = set_up(workload, args.seed)
        if args.trace:
            attempted, failures, metrics, detail = traced(workload, inputs, args.seconds, args.seed)
        else:
            attempted, failures, metrics, detail = end_to_end(
                workload, inputs, args.seconds, setup_s, lambda: set_up(workload, args.seed)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "detail": detail, "failures": failures[:100],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
