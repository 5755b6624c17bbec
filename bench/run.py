"""Time qmono's CLI from outside, check every output, report one JSON line.

    python3 bench/run.py --workload haar-ensemble --seed 1 --seconds 30 --trace 0

The run imports qmono from the checkout's src/, builds the workload's round
of CLI calls from --seed, and repeats that round in this process for about
--seconds seconds, timing each `qmono.cli.main([...])` call.  After the
timed region it checks every output against independent reference values
and requires every repeat of a call to be byte-identical to its first run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-module split of the traced rounds,
per round, with the tracing overhead.  The last line of standard output is
the result; a human summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _monotonic():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(workload, seed, out_dir):
    """Import qmono from the checkout and make the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import qmono.cli  # noqa: PLC0415  (import time is part of setup)

    if not Path(qmono.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qmono imported from {qmono.cli.__file__}, not from {SRC}")
    return qmono.cli, workloads.WORKLOADS[workload][0](seed, out_dir)


def setup_probe(workload, seed):
    """Child mode: set up, print the clock at the first call, remove the inputs."""
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT)
    try:
        setup(workload, seed, out_dir)
        print(repr(_monotonic()))
    finally:
        shutil.rmtree(out_dir)
    return 0


def measure_setup(workload, seed, host):
    """(start, seconds) from spawning each fresh process to where its first call would start."""
    probes = []
    for _ in range(SETUP_PROBES):
        host.sample(force=True)
        start, t0 = time.perf_counter(), _monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        probes.append((start, float(proc.stdout.strip().splitlines()[-1]) - t0))
    return probes


def _digest(stdout, paths):
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs rounds of calls, keeping times, exit codes and output digests."""

    def __init__(self, cli, calls, host):
        self.cli = cli
        self.calls = calls
        self.host = host
        self.starts = []
        self.durations = []
        self.traced_s = 0.0
        self.stdouts = [None] * len(calls)
        self.digests = [None] * len(calls)
        self.problems = []
        self.attempted = 0

    def call(self, i):
        call = self.calls[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(call.argv)
            except (Exception, SystemExit) as exc:  # noqa: BLE001  (reported, run goes on)
                rc = repr(exc)
            dt = time.perf_counter() - t0
        if rc != 0:
            self.problems.append(f"{' '.join(call.argv)}: exit {rc}: {err.getvalue().strip()[-300:]}")
        digest = _digest(out.getvalue(), call.outputs)
        if self.digests[i] is None:
            self.digests[i], self.stdouts[i] = digest, out.getvalue()
        elif digest != self.digests[i]:
            self.problems.append(f"{' '.join(call.argv)}: output differs from its first run")
        self.host.sample()
        return t0, dt

    def round(self, tracer=None):
        if tracer:
            tracer.install()
        try:
            for i in range(len(self.calls)):
                t0, dt = self.call(i)
                self.attempted += 1
                if tracer:
                    self.traced_s += dt
                else:
                    self.starts.append(t0)
                    self.durations.append(dt)
        finally:
            if tracer:
                tracer.uninstall()

    def check(self):
        """Check every output once; returns the number of failed calls."""
        failed = 0
        for call, stdout in zip(self.calls, self.stdouts):
            problems = call.check(stdout=stdout)
            if problems and call.fault:
                failed += 1
                print(f"known fault {call.fault}: {' '.join(call.argv)}: {problems[0]}",
                      file=sys.stderr)
            else:
                self.problems += [f"{' '.join(call.argv)}: {p}" for p in problems]
        return failed


def run_rounds(runner, seconds, tracer=None):
    """Whole rounds until about `seconds` have passed; traced rounds alternate."""
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        runner.round(tracer if traced else None)
        rounds += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and rounds % 2:
            continue
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return rounds


def end_to_end(runner, calls, rounds, probes, scale):
    """The metrics a user sees; an interval of dt seconds starting at t counts scale(t) * dt."""
    per_round = sum(c.states for c in calls)
    durations = [scale(t) * dt for t, dt in zip(runner.starts, runner.durations)]
    return {
        "states_per_s": (per_round * rounds / sum(durations), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(durations), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(scale(t) * dt for t, dt in probes), "s"),
    }


def per_layer(runner, tracer, rounds):
    traced = rounds // 2
    metrics = tracer.metrics(traced)
    wall = runner.traced_s / traced
    untraced = sum(runner.durations) / (rounds - traced)
    accounted = float(tracer.self_s.sum()) / traced
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.accounted_share"] = (accounted / wall, "ratio")
    metrics["host.reference_s"] = (statistics.median(runner.host.samples), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qmono" / "__init__.py").is_file():
        print(f"error: no qmono sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    from hostspeed import HostSpeed  # noqa: PLC0415  (kept out of the setup probes)

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        host = HostSpeed(workloads.WORKLOADS[args.workload][1])
        probes = measure_setup(args.workload, args.seed, host)
        cli, calls = setup(args.workload, args.seed, out_dir)
        runner = Runner(cli, calls, host)
        tracer = None
        if args.trace:
            from spans import Tracer  # noqa: PLC0415

            tracer = Tracer()
        rounds = run_rounds(runner, args.seconds, tracer)
        if rounds == 1:
            runner.call(0)  # untimed repeat, compared byte for byte with the timed call
        if tracer:
            metrics = per_layer(runner, tracer, rounds)
        else:
            metrics = end_to_end(runner, calls, rounds, probes, host.scale)
            raw = end_to_end(runner, calls, rounds, probes, lambda t: 1.0)
        failed = runner.check() * rounds
    finally:
        shutil.rmtree(out_dir)

    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(calls)} calls", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}", file=sys.stderr)
    if not args.trace:
        factor = statistics.median(host.scale(t) for t in runner.starts)
        print(f"  unscaled, host factor {factor:.4f}: "
              + json.dumps({k: v for k, (v, _) in raw.items()}), file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
