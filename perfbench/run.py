"""Pinned end-to-end benchmark of the flatchains CLI.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the workload's calls run as a closed loop with one
client, pinned to one CPU: one `python -m flatchains.cli ... --json` child
at a time, pass after pass until `--seconds` have gone by.  Call times are
taken at a reference CPU speed (see `measure`).  Every output is checked
(exit code, schema, exact witnesses, pinned references).  With
`--trace 1` the same calls run in this process through
`flatchains.cli.main`, once untraced and once with spans around each
layer's public functions, and the per-layer metrics are reported.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the report.
Per-call records (input size, timings, verdict) and the spans go to
`.perfbench_work/<workload>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import gen
import spans

REFERENCES = Path(__file__).resolve().parent / "references.json"
CALL_TIMEOUT_S = 30.0
DEFECT_TIMEOUT_S = 3.0
RUN_DEADLINE_S = 150.0
MIN_PASSES = 3
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TRACE_ROUNDS = 2
TAIL_SHARE = 1 / 3
MIDDLE_SHARE = 0.6
SPEED_REPEATS = 3
SPEED_NOMINAL_S = 0.010  # speed_probe() at the reference speed


class Setup:
    """Inputs on disk, references and the output checker for one run."""

    def __init__(self, root: Path, workload: str, seed: int, references: dict = None):
        self.root = root
        self.cpu = max(os.sched_getaffinity(0))
        self.work = root / ".perfbench_work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.calls = gen.build(workload, seed)
        for call in self.calls:
            (self.work / call.file).write_text(call.text, encoding="utf-8")
        if references is None:
            with open(REFERENCES, encoding="utf-8") as fh:
                references = json.load(fh)
        self.checker = check.Checker(root / "src" / "flatchains" / "schema.json", references)
        self.env = child_env(root)
        done = subprocess.run([sys.executable, "-c", "import flatchains.cli"],
                              env=self.env, cwd=self.work, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(f"cannot import flatchains.cli: {done.stderr.decode()[-300:]}")

    def path(self, call: gen.Call) -> str:
        return str(self.work / call.file)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def steal_s(cpu: int) -> float:
    """Hypervisor steal time of `cpu` so far, in seconds, from /proc/stat:
    time the CPU was runnable but the host ran something else.  0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            row = next((line.split() for line in fh if line.startswith(f"cpu{cpu} ")), [])
    except OSError:
        return 0.0
    return int(row[8]) / os.sysconf("SC_CLK_TCK") if len(row) > 8 else 0.0


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the kind the program
    does (Fractions, tuple-keyed dicts, sorting); about SPEED_NOMINAL_S at
    the reference speed."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 2500):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        seen[(i % 37, str(i))] = acc
    sorted(seen.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return time.perf_counter() - start


def speed_factor() -> float:
    """How much faster than the reference speed this CPU runs right now."""
    return SPEED_NOMINAL_S / min(speed_probe() for _ in range(SPEED_REPEATS))


def pin_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU; its number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(argv: list, env: dict, cwd: Path, out_path: Path, timeout: float,
          cpu: int) -> dict:
    """Run one child to completion on `cpu`; wall from spawn to exit, rusage
    from wait4, the steal time of `cpu` meanwhile, and the CPU's speed
    factor measured just before."""
    speed = speed_factor()
    with open(out_path, "wb") as out:
        stolen = steal_s(cpu)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            wall = time.perf_counter() - start
        finally:
            if not reaped:  # interrupted: leave no child behind
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
            os.close(pidfd)
        steal = steal_s(cpu) - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": None if not ready else proc.returncode, "wall_s": wall,
            "steal_s": min(steal, wall), "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "speed": speed}


def run_call(setup: Setup, call: gen.Call, timeout: float) -> tuple[dict, bytes]:
    out_path = setup.work / "stdout.json"
    argv = [sys.executable, "-m", "flatchains.cli", *call.argv(setup.path(call))]
    rec = spawn(argv, setup.env, setup.work, out_path, timeout, setup.cpu)
    return rec, out_path.read_bytes()


# -- metrics ----------------------------------------------------------------

def slowest_mean(values: list) -> float:
    """Mean of the slowest TAIL_SHARE of the values (at least one)."""
    xs = sorted(values, reverse=True)
    return statistics.fmean(xs[:max(1, round(len(xs) * TAIL_SHARE))])


def middle_mean(values: list) -> float:
    """Mean of the middle MIDDLE_SHARE of the sorted values: a median that
    averages over its neighbours."""
    xs = sorted(values)
    cut = round(len(xs) * (1 - MIDDLE_SHARE) / 2)
    return statistics.fmean(xs[cut:len(xs) - cut] or xs)


def frac(num: int, den: int) -> str:
    return f"{num / den:.4f} ({num}/{den})" if den else "n/a (0/0)"


class Tally:
    """Verdicts of checked calls: failures, unproved flat norms, records."""

    def __init__(self):
        self.attempted = self.failed = self.flat = self.unproved = 0
        self.records: list = []
        self.reasons: dict = {}

    def add(self, setup: Setup, call: gen.Call, code, out: bytes, rec: dict) -> None:
        ok, reason, facts = setup.checker.check(call, code, out)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.setdefault(call.name, reason)
        if "exact" in facts:
            self.flat += 1
            self.unproved += not facts["exact"]
        self.records.append({"call": call.name, "cells": call.cells,
                             "in_bytes": len(call.text.encode()), "out_bytes": len(out),
                             **rec, "ok": ok, "reason": reason})


def measure(setup: Setup, seconds: float, deadline: float) -> tuple[dict, Tally, dict]:
    """Closed-loop CLI passes until every call has run MIN_PASSES times and
    `seconds` have gone by, checking each output after its call; the
    end-to-end metrics.

    The host's CPUs change speed by a factor of two within a run, so times
    are taken at the reference speed.  A sample's time is its wall from
    spawn to exit less the steal time of its CPU meanwhile.  wall_s sums
    each call's median time over the call list; it and cpu_s are then
    scaled by the run's mean speed factor, measured on the same CPU before
    every call (`speed_factor`).  One probe is too short to track the speed
    during a call, but their mean tracks the speed of the run.  (The CPU
    flips between a slow and a fast state, so the median of the factors
    jumps between the two.)

    A call's own time, for call_p50_s and call_tail_s, is its mean share of
    the complete passes times wall_s: the calls of one pass mostly see the
    same CPU state, so shares are steadier than a call's few samples."""
    tally = Tally()
    samples = {call.name: [] for call in setup.calls}
    order = []  # every sample, in the order run
    began = time.perf_counter()
    done = False
    while not done:
        for call in setup.calls:
            enough = min(map(len, samples.values())) >= MIN_PASSES
            if (enough and time.perf_counter() - began >= seconds) or time.monotonic() > deadline:
                done = True
                break
            rec, out = run_call(setup, call, min(CALL_TIMEOUT_S, deadline - time.monotonic()))
            tally.add(setup, call, rec.pop("code"), out, rec)
            samples[call.name].append(rec)
            order.append((call.name, rec))
    ran = [recs for recs in samples.values() if recs]

    speeds = [r["speed"] for recs in ran for r in recs]
    speed = statistics.fmean(speeds)

    def per_call(key):
        return [statistics.median(key(r) for r in recs) for recs in ran]

    def net(r):
        return r["wall_s"] - r["steal_s"]

    wall = sum(per_call(net)) * speed
    shares = {name: [] for name in samples}
    width = len(setup.calls)
    for i in range(0, len(order) - width + 1, width):
        one_pass = order[i:i + width]
        total = sum(net(r) for _, r in one_pass)
        for name, r in one_pass:
            shares[name].append(net(r) / total)
    times = [statistics.fmean(s) * wall for s in shares.values() if s]
    metrics = {"wall_s": wall, "call_p50_s": middle_mean(times),
               "call_tail_s": slowest_mean(times),
               "cpu_s": sum(per_call(lambda r: r["cpu_s"])) * speed,
               "peak_rss_mb": max(per_call(lambda r: r["rss_mb"]))}
    raw, steal = sum(per_call(lambda r: r["wall_s"])), sum(per_call(lambda r: r["steal_s"]))
    count = sum(map(len, ran))
    notes = {"wall_s": f"sum of {len(ran)} calls' median times, {count} samples; raw wall "
                       f"{raw:.3f} s, steal {steal:.3f} s, speed factor {speed:.3f} (mean of "
                       f"{len(speeds)}, {min(speeds):.2f} to {max(speeds):.2f})",
             "call_p50_s": f"mean of the middle {MIDDLE_SHARE:.0%} of the calls' times",
             "call_tail_s": f"mean of the slowest {max(1, round(len(times) * TAIL_SHARE))} "
                            f"of {len(times)} calls' times",
             "cpu_s": "children's user+sys, sum of the calls' medians, times the speed factor",
             "peak_rss_mb": "largest of the calls' median ru_maxrss"}
    return metrics, tally, notes


def probe_defects(setup: Setup, seed: int) -> list:
    """(call, outcome, wall, answered wrongly) for each known-defect input;
    these run once, apart from the timed passes."""
    lines = []
    for call in gen.known_defects(seed):
        (setup.work / call.file).write_text(call.text, encoding="utf-8")
        rec, out = run_call(setup, call, DEFECT_TIMEOUT_S)
        code = rec["code"]
        wrong = False
        if code is None:
            outcome = f"not answered: timeout after {DEFECT_TIMEOUT_S:g} s"
        elif code == 0:
            ok, reason, _ = setup.checker.check(call, code, out)
            wrong = not ok
            outcome = "answered, checked" if ok else f"answered wrongly: {reason}"
        else:
            outcome = f"not answered: exit {code}: {check.error_message(out)}"
        lines.append((call, outcome, rec["wall_s"], wrong))
    return lines


# -- traced in-process run ------------------------------------------------

def in_process(setup: Setup, cli, recorder) -> tuple[float, list]:
    """One pass through cli.main in this process; (wall, [(call, code, stdout)])."""
    main = recorder.span("cli.main", cli.main) if recorder else cli.main
    results = []
    gc.collect()
    start = time.perf_counter()
    for i, call in enumerate(setup.calls):
        if recorder:
            recorder.call_id = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(call.argv(setup.path(call)))
            except SystemExit as stop:
                code = stop.code
        results.append((call, code, buf.getvalue().encode()))
    return time.perf_counter() - start, results


def import_seconds(setup: Setup) -> float:
    probe = ("import time; t = time.perf_counter(); import flatchains.cli; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe], env=setup.env, cwd=setup.work,
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def traced(setup: Setup) -> tuple[dict, Tally, dict]:
    """TRACE_ROUNDS rounds of a traced then an untraced in-process pass, after
    a warm-up pass; each per-layer metric is the median over the rounds."""
    sys.path.insert(0, str(setup.root / "src"))
    import flatchains.cli as cli

    import_s = import_seconds(setup)
    in_process(setup, cli, None)  # warm-up: first-call costs stay out of both timings
    commands = [call.cmd for call in setup.calls]
    tally = Tally()
    rounds, traced_walls, plain_walls = [], [], []
    for _ in range(TRACE_ROUNDS):
        recorder = spans.Recorder()
        recorder.install(cli)
        try:
            wall, results = in_process(setup, cli, recorder)
        finally:
            recorder.remove()
        traced_walls.append(wall)
        plain_walls.append(in_process(setup, cli, None)[0])
        out_bytes = 0
        for call, code, out in results:
            out_bytes += len(out)
            tally.add(setup, call, code, out, {})
        recorder.counts["cli.out_bytes"] = out_bytes
        rounds.append(spans.layer_metrics(recorder.spans, recorder.counts, commands))
        if len(rounds) == 1:
            with open(setup.work / "spans.json", "w", encoding="utf-8") as fh:
                json.dump({"calls": [c.name for c in setup.calls], "spans": recorder.spans}, fh)
    metrics = {"cli.import_s": import_s}
    metrics.update({name: statistics.median(r[name] for r in rounds) for name in rounds[0]})
    traced_wall, plain_wall = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    notes = {"trace.overhead_frac": f"median traced pass {traced_wall:.3f} s / median untraced "
                                    f"{plain_wall:.3f} s, {TRACE_ROUNDS} rounds"}
    return metrics, tally, notes


# -- entry point ------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "flatchains" / "cli.py").is_file():
        print(f"error: no src/flatchains under {root}; run from a flatchains checkout",
              file=sys.stderr)
        return 2
    pin_cpu()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through spawn's cleanup

    setup_times, setup_speeds = [], []
    for _ in range(SETUP_REPEATS):
        setup_speeds.append(speed_factor())
        start = time.perf_counter()
        setup = Setup(root, args.workload, args.seed)
        setup_times.append(time.perf_counter() - start)

    units = spans.metric_units() if args.trace else {
        "wall_s": "s", "call_p50_s": "s", "call_tail_s": "s", "cpu_s": "s",
        "peak_rss_mb": "MB", "setup_s": "s"}
    if args.trace:
        metrics, tally, notes = traced(setup)
        defects = []
    else:
        metrics, tally, notes = measure(setup, args.seconds, deadline)
        speed = statistics.fmean(setup_speeds)
        metrics["setup_s"] = statistics.median(setup_times) * speed
        notes["setup_s"] = (f"median of {SETUP_REPEATS} set-ups, times their mean speed "
                            f"factor {speed:.3f}")
        defects = probe_defects(setup, args.seed) if args.workload == "solve" else []

    with open(setup.work / "calls.json", "w", encoding="utf-8") as fh:
        json.dump(tally.records, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls per pass {len(setup.calls)}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}"
              + (f"  ({notes[name]})" if name in notes else ""))
    if not args.trace:
        print(f"  {'failed_frac':28s} {frac(tally.failed, tally.attempted)}")
        print(f"  {'unproved_frac':28s} {frac(tally.unproved, tally.flat)}"
              "  (flatnorm/flatnormp results with exact=false)")
    for call, outcome, wall, _ in defects:
        print(f"  known defect {call.name}: {outcome} ({wall:.3f} s)")
    for name, reason in sorted(tally.reasons.items()):
        print(f"  FAILED {name}: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0 and not any(wrong for *_, wrong in defects),
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
