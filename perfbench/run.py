"""End-to-end benchmark of the GATSPI reproduction, with per-layer tracing.

One workload per process::

    python3 perfbench/run.py --workload designB_hiact --seed 1 --seconds 20 --trace 0

prints a human-readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same rounds with every
layer call recorded as a span and reports the per-layer metrics (it also
writes the spans as Chrome trace-event JSON under ``perfbench/out/``).
Every run does a fixed number of whole rounds, ``ceil(seconds /
round_seconds)``, where ``round_seconds`` is the workload's nominal round
time on the reference machine: ``--seconds`` sets the amount of work, and
the machine's speed never changes it.  Host times are reported in
reference seconds: each round's time, and each of its cold prepares, is
scaled by how fast the fixed loop of ``perfbench/reference.py`` ran right
before it, so that the shared machine's changes of speed cancel.

Without ``--workload`` the command runs every workload, untraced and then
traced, each in a fresh interpreter, and prints both tables and the tracing
overhead.  ``--steady N`` runs each workload N times, each in a fresh
interpreter with its own seed (``--seed`` onwards), and prints the median
and quartiles of every end-to-end metric.

Workloads and metrics are listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC = os.path.join(REPO, "src")

WORKLOAD_NAMES = ("designB_hiact", "designB_stream", "seq_clocked", "eco_loop")

#: The environment every workload process runs under: one thread for every
#: numeric library, and a fixed string-hash seed so that set and dict
#: orders, and with them the program's memory layout, repeat across runs.
RUN_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: (metric, unit) of every per-layer metric, in report order.  Times are
#: self times in seconds summed over a traced run's rounds.
PER_LAYER = (
    ("analysis.s", "s"),
    ("levelize.s", "s"),
    ("compile.fingerprint_s", "s"),
    ("compile.pack_s", "s"),
    ("prepare.self_s", "s"),
    ("restructure.s", "s"),
    ("restructure.calls", "count"),
    ("memory.s", "s"),
    ("kernel.s", "s"),
    ("kernel.calls", "count"),
    ("kernel.tasks", "count"),
    ("readback.trim_s", "s"),
    ("readback.stitch_s", "s"),
    ("readback.stitch_calls", "count"),
    ("clocked.frames", "count"),
    ("clocked.frame_s", "s"),
    ("clocked.loop_self_s", "s"),
    ("register.next_state_s", "s"),
    ("xp.op_lookups", "count"),
    ("stream.accumulate_s", "s"),
    ("stream.chunks", "count"),
    ("saif.s", "s"),
    ("incremental.plan_s", "s"),
    ("incremental.rebuild_s", "s"),
    ("incremental.dirty_gates", "count"),
    ("incremental.fallbacks", "count"),
    ("edits.apply_s", "s"),
    ("power.s", "s"),
    ("session.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("vcd.replay_s", "s"),
    ("trace.rate", "1/s"),
)

#: The benchmark's own root spans: each cold prepare, each timed round or
#: probe.  Their self time is the time no wrapped entry point covers.
ROOT_SPANS = ("setup", "loop")

#: Per-layer time metric -> the span names whose self times it sums.
SELF_TIME_SPANS = {
    "analysis.s": ("analysis",),
    "levelize.s": ("levelize",),
    "compile.fingerprint_s": ("compile.fingerprint",),
    "compile.pack_s": ("compile.pack",),
    "prepare.self_s": ("prepare",),
    "restructure.s": ("restructure",),
    "memory.s": ("memory",),
    "kernel.s": ("kernel",),
    "readback.trim_s": ("readback.trim",),
    "readback.stitch_s": ("readback.stitch",),
    "clocked.frame_s": ("clocked.frame",),
    "clocked.loop_self_s": ("clocked.loop",),
    "register.next_state_s": ("register.next_state",),
    "stream.accumulate_s": ("stream.add_batch", "stream.finalize"),
    "saif.s": ("saif",),
    "incremental.plan_s": ("incremental.plan",),
    "incremental.rebuild_s": ("incremental.rebuild",),
    "edits.apply_s": ("edits.apply",),
    "power.s": ("power",),
    "session.self_s": ("session",),
    "trace.unattributed_s": ROOT_SPANS,
}

#: Per-layer count metric -> the span name whose calls it counts.
CALL_COUNT_SPANS = {
    "restructure.calls": "restructure",
    "kernel.calls": "kernel",
    "readback.stitch_calls": "readback.stitch",
    "clocked.frames": "clocked.frame",
    "stream.chunks": "stream.add_batch",
}


#: (metric, unit) of every end-to-end metric; every workload reports all.
END_TO_END = (("setup_s", "s"), ("cycles_per_s", "1/s"), ("peak_rss_mb", "MB"))


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    import reference
    import tracing

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    # Imported after install so its program calls resolve to the wrappers.
    import workloads
    from repro.analysis.engine import clear_analysis_cache
    from repro.core import clear_compile_cache

    workload = workloads.WORKLOADS[name](seed=seed, out_dir=OUT_DIR)
    rounds = max(1, math.ceil(seconds / workload.round_seconds))
    workload.build()
    workload.prepare()  # lazy imports and first-call costs, untimed

    def cold_prepare():
        clear_compile_cache()
        clear_analysis_cache()
        start = time.perf_counter()
        with tracer.root("setup"):
            session = workload.prepare()
        return session, time.perf_counter() - start

    # Every cold prepare's host seconds, as lists of one round's prepares.
    setup: List[List[float]] = []
    done = []
    # Per round, the reference loop's nominal over its measured seconds:
    # what turns the round's host seconds into reference seconds.
    speed: List[float] = []
    try:
        session, _ = cold_prepare()
        workload.warm_up(session)
        reference.reference_seconds()
        for _ in range(rounds):
            # The reference loop gauges the machine's speed right before the
            # round's set-up and loop.  Cold prepares are spread over the
            # run, between rounds, so that set-up time samples the same
            # stretch of machine time as the rate.  Each leaves the caches
            # as the loop session's own prepare did.
            speed.append(reference.NOMINAL_SECONDS / reference.reference_seconds())
            setup.append([cold_prepare()[1] for _ in range(workload.setup_per_round)])
            done.append(workload.run_round(session, tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Medians over rounds: a round slowed by a burst on the shared
        # machine moves them less than it would move a mean.
        rate = statistics.median(r.cycles / (r.seconds * f) for r, f in zip(done, speed))
        setup_s = statistics.median(s * f for times, f in zip(setup, speed) for s in times)
        wall_rate = statistics.median(r.cycles / r.seconds for r in done)
        workload.check(session)
        if trace:
            layers = tracer.table()
            metrics = per_layer_metrics(tracer, layers, workload.layer_counts(), rate)
            problem = trace_problem(
                tracer, layers, metrics,
                prepares=1 + rounds * workload.setup_per_round,
                session_calls=rounds * workload.session_calls_per_round,
            )
            if problem:
                raise workloads.CheckError(f"trace: {problem}")
    except workloads.CheckError as exc:
        print(f"CHECK FAILED [{name}]: {exc}")
        attempted = max(1, sum(r.attempted for r in done))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": sum(r.failed for r in done), "metrics": {}}))
        return 1

    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    print(f"workload {name}  seed {seed}  rounds {rounds}  trace {int(trace)}")
    print(f"  setup: median of {rounds} x {workload.setup_per_round} cold prepares")
    print(
        f"  times in reference seconds: the machine ran at {statistics.median(speed):.3f}"
        f" of the reference speed (median; range {min(speed):.3f}-{max(speed):.3f});"
        f" unnormalised: {wall_rate:.4f} cycles/s, set-up"
        f" {statistics.median(s for times in setup for s in times):.4f} s"
    )
    if failed:
        print(f"  failed operations: {failed} of {attempted}  (last failure: {workload.failure})")
    if trace:
        print_layer_table(tracer, layers)
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
        tracer.write(path, {"workload": name, "seed": seed, "rounds": rounds})
        print(f"  chrome trace: {os.path.relpath(path, REPO)}")
    else:
        values = {"setup_s": setup_s, "cycles_per_s": rate, "peak_rss_mb": peak_rss_mb}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        for key, metric in metrics.items():
            print(f"  {key:<14} {metric['value']:>12.4f} {metric['unit']}")
        for key, value in workload.extra_rates(rate).items():
            print(f"  {key:<14} {value:>12.4f} 1/s")
        for key, value in workload.layer_counts().items():
            print(f"  ({key} {value})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(tracer, layers, counts: Dict[str, float], rate: float) -> Dict[str, Dict]:
    mapped = {span for spans in SELF_TIME_SPANS.values() for span in spans}
    unmapped = set(layers) - mapped
    if unmapped:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unmapped)}")
    values: Dict[str, float] = {metric: 0 for metric, _ in PER_LAYER}
    for metric, spans in SELF_TIME_SPANS.items():
        values[metric] = sum(layers[s]["self_s"] for s in spans if s in layers)
    for metric, span in CALL_COUNT_SPANS.items():
        values[metric] = layers[span]["calls"] if span in layers else 0
    values["kernel.tasks"] = tracer.counters.get("kernel.tasks", 0)
    values["xp.op_lookups"] = tracer.counters.get("xp.op_lookups", 0)
    values.update(counts)
    values["trace.rate"] = rate
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}


#: Largest share of the root spans' time that no wrapped entry point may
#: cover.  The benchmark's own glue inside a root is a few attribute reads
#: and calls per round; a share above this means an entry point (a prepare,
#: ``Session.run``, ``rerun`` ...) ran under a name the tracer does not wrap.
MAX_UNATTRIBUTED = 0.02


def trace_problem(tracer, layers, metrics, prepares: int, session_calls: int) -> Optional[str]:
    """Why the trace does not cover the timed work, or ``None``.

    Every span's self time lands in exactly one layer metric, so the layer
    times plus ``trace.unattributed_s`` equal the root spans by
    construction; the first check guards the aggregation only.  The
    entry-point counts and the unattributed share are what can show a
    call the wrappers missed.  A layer below the entry points that is
    missed is charged to its entry point's self time (``session.self_s``,
    ``prepare.self_s``) and cannot be told apart from that self time.
    """
    roots = tracer.root_seconds()
    covered = sum(metrics[metric]["value"] for metric in SELF_TIME_SPANS)
    if abs(covered - roots) > 1e-9 * max(1.0, roots):
        return f"layer self times sum to {covered} s, root spans to {roots} s"
    calls = {span: layers[span]["calls"] if span in layers else 0 for span in ("prepare", "session")}
    if calls != {"prepare": prepares, "session": session_calls}:
        return f"entry-point spans {calls}, expected prepare {prepares}, session {session_calls}"
    unattributed = metrics["trace.unattributed_s"]["value"]
    if unattributed > MAX_UNATTRIBUTED * roots:
        return f"{unattributed:.4f} s of {roots:.4f} s in root spans is outside every wrapped call"
    return None


def print_layer_table(tracer, layers) -> None:
    print(f"  {'span':<22}{'calls':>9}{'self s':>11}{'share':>8}")
    roots = tracer.root_seconds()
    for name, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / roots if roots else 0.0
        print(f"  {name:<22}{row['calls']:>9}{row['self_s']:>11.4f}{share:>8.1%}")
    print(f"  root spans {roots:.4f} s (setup and loop rows: time outside every wrapped call)")


# ----------------------------------------------------------------------
# Several workload processes
# ----------------------------------------------------------------------
def child(workload: str, seed: int, extra: List[str]) -> Tuple[Dict, str]:
    """Run one workload in a fresh interpreter: its result and its report."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed)] + extra
    proc = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    summary = {}
    for name in WORKLOAD_NAMES:
        plain, plain_report = child(name, seed, ["--seconds", str(seconds), "--trace", "0"])
        traced, traced_report = child(name, seed, ["--seconds", str(seconds), "--trace", "1"])
        print(plain_report)
        print(traced_report)
        overhead = plain["metrics"]["cycles_per_s"]["value"] / traced["metrics"]["trace.rate"]["value"] - 1.0
        summary[name] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead}
    print()
    print(f"{'workload':<16}{'metric':<18}{'value':>12} {'unit':<6}{'attempted':>10}{'failed':>8}")
    for name, runs in summary.items():
        plain = runs["untraced"]
        for key, metric in plain["metrics"].items():
            print(f"{name:<16}{key:<18}{metric['value']:>12.4f} {metric['unit']:<6}{plain['attempted']:>10}{plain['failed']:>8}")
        print(f"{name:<16}{'tracing overhead':<18}{runs['tracing_overhead']:>12.1%}")
    print()
    print(f"{'per-layer metric':<30}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    for metric, unit in PER_LAYER:
        cells = "".join(f"{summary[n]['traced']['metrics'][metric]['value']:>16.4g}" for n in WORKLOAD_NAMES)
        print(f"{metric + ' [' + unit + ']':<30}{cells}")
    print(json.dumps(summary))
    ok = all(runs["untraced"]["correct"] and runs["traced"]["correct"] for runs in summary.values())
    return 0 if ok else 1


#: The unnormalised rate and set-up time in a single run's report.
UNNORMALISED = re.compile(r"unnormalised: ([0-9.]+) cycles/s, set-up ([0-9.]+) s")


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_steady(runs: int, names: List[str], first_seed: int, seconds: float) -> int:
    """Each workload ``runs`` times in fresh interpreters, one seed each from
    ``first_seed`` on, each run doing the same rounds as a single run."""
    ok = True
    report = {}
    for name in names:
        extra = ["--seconds", str(seconds), "--trace", "0"]
        children = [child(name, seed, extra) for seed in range(first_seed, first_seed + runs)]
        results = [result for result, _ in children]
        ok = ok and all(r["correct"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {runs} runs, failed share {sorted(shares)}")
        series = {key: [r["metrics"][key]["value"] for r in results] for key in results[0]["metrics"]}
        # The same figures before normalisation, read from the reports, to
        # show how much of the spread the machine's speed made.
        unnormalised = [UNNORMALISED.search(text) for _, text in children]
        if all(unnormalised):
            series["cycles_per_s (unnormalised)"] = [float(m.group(1)) for m in unnormalised]
            series["setup_s (unnormalised)"] = [float(m.group(2)) for m in unnormalised]
        report[name] = {}
        for key, values in series.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            report[name][key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {key:<28} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  (q3-q1)/median {spread:7.2%}")
    print(json.dumps(report))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="sets the rounds a run does: about this long on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="steadiness mode: N fresh runs per workload")
    args = parser.parse_args(argv)

    if any(os.environ.get(key) != value for key, value in RUN_ENV.items()):
        # Re-execute under the fixed environment; the process stays the same.
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **RUN_ENV})
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return run_steady(args.steady, names, args.seed, args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
