"""Benchmark of the `aqrm` command line, run the way users run it.

Every invocation is a fresh `python -m aqrm.cli ...` process built from the
checkout's `src/`, so interpreter start, imports and cold caches are paid as a
user pays them. One run of a workload:

1. set-up: times a fresh interpreter importing `aqrm.cli`, several times;
2. expectations: computes the ground truth for every output (outside timing);
3. passes: runs the workload's invocation list again and again for about
   `--seconds` (at least once), timing each pass and checking every output.

    python3 perfbench/run.py --workload sweep-half --seed 1 --seconds 25 --trace 0

Times are reported at a fixed reference machine speed. Between timed children
the benchmark runs `probe.py`, a fixed stdlib-only CPU mix, and divides each
time by the probe times measured next to it, then multiplies by PROBE_REF_S.
On a shared host the speed of the same Python work drifts by up to 1.6x in
phases of tens of seconds; the probe cancels that drift, and since it never
runs package code, a change to `aqrm` moves the times exactly as it moves the
raw wall time. The summary line prints the raw times too.

`--trace 0` reports the end-to-end metrics: `setup_s` (median import time),
`wall_s` (median pass wall time) and `peak_rss_mib` (median over passes of the
largest child `ru_maxrss`). `--trace 1` alternates untraced passes with passes
whose children run under `tracer.py`, and reports the per-layer metrics and the
tracing overhead instead. `--workload all` runs every workload in turn and
prints one summary line each, with `failed_frac`. The last line of stdout is
always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 9
SHOWN_PROBLEMS = 5
# probe time spent after each pass, as a share of the pass (at least one probe)
PROBE_SHARE = 0.05
# the probe's median time on the 2-vCPU host the benchmark was defined on;
# times are reported as if every probe had taken exactly this long
PROBE_REF_S = 0.1

END_TO_END = ("setup_s", "wall_s", "peak_rss_mib")
TRACE_TOTALS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")
UNITS = {"peak_rss_mib": "MiB", "calls": "count", "inertia_probes": "count",
         "spans": "count", "share": "ratio", "hit_ratio": "ratio",
         "distinct_ratio": "ratio", "calg_per_eigenvalue": "1/eigenvalue",
         "probes_per_eigenvalue": "1/eigenvalue"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict[str, str]:
    """Environment for CLI children: `aqrm` from this checkout's `src/` only.
    Also makes the same sources importable here, for the expectations."""
    src = ROOT / "src"
    if not (src / "aqrm" / "cli.py").is_file():
        raise BenchError(f"no aqrm sources under {src}")
    sys.path.insert(0, str(src))
    import aqrm
    if Path(aqrm.__file__).resolve().parent != (src / "aqrm").resolve():
        raise BenchError(f"aqrm imports from {aqrm.__file__}, not {src}")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(src)
    return env


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Launcher:
    """Runs `python argv...` children through `launcher.py`, so that their
    `ru_maxrss` carries the launcher's few MiB and not this process's memory.
    stdout and stderr of each child go to files under `out/`."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is not None:
            self.proc.terminate()     # kills and reaps the child it waits on
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv: list[str], stem: str) -> tuple[float, int, int, str]:
        """(wall_s, exit code, ru_maxrss KiB, stdout) of one child."""
        out_path = OUT / f"{stem}.out"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "env": self.env, "out": str(out_path),
            "err": str(OUT / f"{stem}.err")}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"launcher exited (status {self.proc.wait()})")
        reply = json.loads(line)
        return reply["wall_s"], reply["rc"], reply["maxrss_kib"], out_path.read_text()


def run_probes(launcher: Launcher, count: int) -> list[float]:
    """Wall times of `count` runs of the fixed CPU probe."""
    walls = []
    for _ in range(count):
        wall, rc, _, _ = launcher.spawn([str(HERE / "probe.py")], "probe")
        if rc != 0:
            raise BenchError(f"probe.py failed (exit {rc})")
        walls.append(wall)
    return walls


def measure_setup(launcher: Launcher) -> tuple[list[float], list[float]]:
    """Import times of `aqrm.cli` in fresh interpreters, each followed by a
    probe; the first import, which may write bytecode caches, is not kept."""
    argv = ["-c", "import aqrm.cli, sys; sys.stdout.write(aqrm.cli.__file__)"]
    samples, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        wall, rc, _, out = launcher.spawn(argv, "setup")
        if rc != 0 or Path(out).resolve().parent != (ROOT / "src" / "aqrm").resolve():
            raise BenchError(f"importing aqrm.cli failed (exit {rc}): {out!r}")
        if i:
            samples.append(wall)
            probes += run_probes(launcher, 1)
    return samples, probes


class Run:
    """One run of one workload: passes, their checks and the trace dumps."""

    def __init__(self, workload, launcher: Launcher, expect: dict, refs: list | None):
        self.workload, self.launcher = workload, launcher
        self.expect, self.refs = expect, refs
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> tuple[float, int, list[dict]]:
        """(wall_s, largest child ru_maxrss in KiB, span dumps) of one pass
        through the invocation list. The pass wall time is the sum of the
        children's, each timed by the launcher from spawn to reaping; outputs
        are checked after all of them ran."""
        results, dumps = [], []
        for i, argv in enumerate(self.workload.invocations):
            if traced:
                dump = OUT / f"trace-{i}.marshal"
                cmd = [str(HERE / "tracer.py"), str(dump), str(i), "--", *argv]
            else:
                cmd = ["-m", "aqrm.cli", *argv]
            results.append(self.launcher.spawn(cmd, f"inv-{i}"))
        wall = sum(r[0] for r in results)
        for i, (argv, (_, rc, _, out)) in enumerate(zip(self.workload.invocations, results)):
            problems = check.check(self.workload, argv, rc, out, self.expect)
            if self.refs is not None and not problems:
                problems = check.compare_reference(argv, out, self.refs[i])
            if traced and rc == 0:
                dump = marshal.loads((OUT / f"trace-{i}.marshal").read_bytes())
                if not dump["restored"] or not dump["bindings"]:
                    raise BenchError("tracer left a module attribute wrapped")
                dumps.append(dump)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return wall, max(r[2] for r in results), dumps


def load_reference(name: str) -> list[dict]:
    ref = json.loads((REFERENCE / f"{name}.json").read_text())
    if ref["seed"] != workloads.DEFAULT_SEED:
        raise BenchError(f"reference for {name} is not for the default seed")
    return ref["invocations"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    return "s" if last.endswith("_s") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher) -> tuple[Run, dict[str, float], str]:
    workload = workloads.generate(name, seed)
    setup, probes = measure_setup(launcher)
    expect = check.expectations(workload)
    refs = load_reference(name) if seed == workloads.DEFAULT_SEED else None
    run = Run(workload, launcher, expect, refs)
    plain, traced, scaled = [], [], []
    before = probes[-2:]
    start = time.perf_counter()
    while True:
        plain.append(run.run_pass(traced=False))
        after = run_probes(launcher, max(1, round(
            PROBE_SHARE * plain[-1][0] / statistics.median(probes))))
        probes += after
        # each pass is scaled by the probes run just before and just after it
        scaled.append(plain[-1][0] * PROBE_REF_S / statistics.mean(before + after))
        before = after
        if trace:
            traced.append(run.run_pass(traced=True))
        # no further pass within half a mean pass of the deadline, so a run
        # of long passes overshoots by about half a pass at most
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) / 2 >= seconds:
            break
    walls = [p[0] for p in plain]
    p25, p75 = quartiles(walls)
    e2e = dict(zip(END_TO_END, (
        statistics.median(setup) * PROBE_REF_S / statistics.median(probes[:len(setup)]),
        statistics.median(scaled),
        statistics.median(p[1] for p in plain) / 1024)))
    summary = (f"{name:<14} seed={seed} passes={len(plain)} "
               f"setup_s={e2e['setup_s']:.4f} s wall_s={e2e['wall_s']:.4f} s "
               f"peak_rss_mib={e2e['peak_rss_mib']:.2f} MiB "
               f"failed_frac={run.failed}/{run.attempted}="
               f"{run.failed / run.attempted:.3f}\n{'':<14} raw: "
               f"setup {statistics.median(setup):.4f} s, pass wall median "
               f"{statistics.median(walls):.4f} s (p25 {p25:.4f}, p75 {p75:.4f}, "
               f"n={len(walls)}), probe median {statistics.median(probes):.4f} s")
    if not trace:
        return run, e2e, summary
    per_pass = [tracer.layer_metrics(p[2], p[0]) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    traced_wall = statistics.median(p[0] for p in traced)
    untraced_wall = statistics.median(walls)
    metrics.update(zip(TRACE_TOTALS, (traced_wall, untraced_wall,
                                      traced_wall - untraced_wall)))
    shares = " ".join(f"{layer}={metrics[f'layer.{layer}.share']:.3f}"
                      for layer in (*tracer.LAYERS, "outside"))
    summary += (f"\n{'':<14} traced shares: {shares} "
                f"overhead_s={metrics['trace.overhead_s']:.4f}")
    return run, metrics, summary


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, _terminate)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        env = child_env()
        OUT.mkdir(exist_ok=True)
        with Launcher(env) as launcher:
            for name in names:
                run, m, summary = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), launcher)
                print(summary, flush=True)
                for p in run.problems[:SHOWN_PROBLEMS]:
                    print(f"  FAILED {p}", file=sys.stderr)
                attempted += run.attempted
                failed += run.failed
                prefix = f"{name}." if args.workload == "all" else ""
                metrics.update({prefix + k: {"value": v, "unit": unit_of(k)}
                                for k, v in m.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
