"""gfsl benchmark: cold `python -m gfsl.cli` invocations on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
library is taken from its `src/` (PYTHONPATH, nothing installed).  All
scratch files go to `.bench_run/` in the checkout.

Workloads (see workloads.py for the seeded inputs):
  ladder   spherical-check --n 1000 --k 100, 4 lambda + 2 nu
  selberg  selberg --lmax 8, seeded center and sigma
  means    means, 6 lambda over [0.575, 13]
  traces   traces over a seeded 200k-eigenvalue genus-2 spectrum, 8 t

--trace 0 measures end to end.  Set-up writes the inputs, then times
SETUP_SAMPLES cold `python -c "import gfsl.cli"`.  The load is a closed
loop with one client: one cold CLI invocation at a time, the next
starting when the previous exits, for --seconds.  Each invocation gives
wall time, child user+sys time and peak RSS (from os.wait4), and every
report row is checked (check.py).

The host's CPU speed drifts by tens of percent over seconds to minutes,
so each child is bracketed by timings of a fixed reference loop and its
times are rescaled to the speed at which that loop takes REF_NOMINAL_S
(Run.spawn_scaled).  Metrics are medians over the run:
  setup_s      rescaled cold-import wall time
  wall_norm_s  rescaled invocation wall time
  cpu_norm_s   rescaled invocation user+sys time
  peak_rss_mb  peak RSS of the invocation (MiB)
  pass_frac    passed / attempted report rows
The raw medians (setup_s, wall_s, cpu_s, reference loop time) and
fail_frac = 1 - pass_frac are printed above the result line and kept in
.bench_run/<workload>-trace0/record.json with every sample.

--trace 1 measures per layer.  It times `python -X importtime` imports
of gfsl, numpy and scipy, then replays the invocation in-process through
`cli.main` (replay.py), alternating untraced and traced replays for
--seconds.  It reports per-function call counts and self times, work
counters, import times and the tracing overhead (traced minus untraced
`cli.main` time).

The last stdout line is one JSON object with the keys correct,
attempted, failed (report rows) and metrics.  `correct` is false when an
invocation crashed, left a report missing or malformed, exited with a
code that disagrees with its rows (2 iff a row failed), or wrote reports
that differ between invocations of one run.
"""

import argparse
import cmath
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import replay
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"

SETUP_SAMPLES = 5        # cold imports per run, median -> setup_s
IMPORT_SAMPLES = 3       # -X importtime runs per traced run
MIN_SAMPLES = 3          # invocations per run even when --seconds is short
MIN_PAIRS = 2            # untraced + traced replay pairs per traced run
RUN_DEADLINE_S = 170.0   # whole run, set-up included
CHILD_LIMIT_S = 60.0     # one child process

# Failed / attempted rows per invocation at the commit that introduced
# this benchmark: minus:U at N = 1000 for both nu (ladder), and the
# wave-slope cliff for the three lambda above 7 (means).
BASELINE_ROWS = {"ladder": (2, 36), "selberg": (0, 20), "means": (3, 60),
                 "traces": (0, 32)}


# Nominal time of reference_work(); see Run.spawn_scaled.
REF_NOMINAL_S = 0.25


@dataclass
class Sample:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    ref_s: float = REF_NOMINAL_S   # reference loop time around this sample

    @property
    def scale(self):
        return REF_NOMINAL_S / self.ref_s


def reference_work():
    """Fixed work like the CLI's: interpreted float, complex and list
    arithmetic, then complex array kernels and exact sums in numpy."""
    acc, z, window = 0.0, 0j, []
    for i in range(1, 200_000):
        x = i * 1e-5
        acc += math.sqrt(x) * math.exp(-x)
        z += cmath.exp(1j * x) / (1.0 + x)
        window.append(acc)
        if len(window) > 64:
            window.pop(0)
    base = np.linspace(0.1, 3.0, 1 << 16)
    for k in range(24):
        nodes = np.exp((-0.5 + 1j * k) * np.log(base))
        z += math.fsum(nodes.real) + np.mean(nodes)
    return acc, z


def reference_s():
    """Wall time of reference_work() in this process."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Run:
    """Scratch space, child environment and deadline of one benchmark run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("GFSL_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.ref_before = None

    def spawn_scaled(self, args, tag):
        """spawn() between two timings of the reference loop.

        On a shared host the CPU speed drifts by tens of percent over
        seconds to minutes.  The reference loop timed right before and
        after the child gives the speed at that moment; Sample.scale
        rescales the child's times to the speed at which the loop takes
        REF_NOMINAL_S.  Consecutive children share the timing between them.
        """
        if self.ref_before is None:
            self.ref_before = reference_s()
        sample = self.spawn(args, tag)
        ref_after = reference_s()
        sample.ref_s = 0.5 * (self.ref_before + ref_after)
        self.ref_before = ref_after
        return sample

    def spawn(self, args, tag):
        """Run `python args` to completion; stdout/stderr go to files."""
        limit = min(CHILD_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            raise TimeoutError("benchmark run deadline reached")
        out_path = self.workdir / f"{tag}.stdout"
        err_path = self.workdir / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)

    def time_left(self):
        return self.deadline - time.perf_counter()


class Verdict:
    """Row counts and consistency of the invocations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = set()
        self.digests = None
        self.rows_per_invocation = None

    def add(self, out, argv, rc):
        try:
            rows = check.check(out, argv)
        except check.ReportError as exc:
            self._whole_invocation_failed(f"rc={rc}: {exc}")
            return
        if rc not in (0, 2):
            self._whole_invocation_failed(f"exit code {rc}")
            return
        self.attempted += rows.attempted
        self.failed += rows.failed
        self.failures.update(rows.failures)
        self.rows_per_invocation = rows.attempted
        if rc != (2 if rows.failed else 0):
            self.problems.append(
                f"exit code {rc} but {rows.failed} failed rows")
        digests = check.digests(Path(out), argv[0])
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append(
                f"reports differ between invocations: {digests}")

    def _whole_invocation_failed(self, why):
        rows = self.rows_per_invocation or 1
        self.attempted += rows
        self.failed += rows
        self.problems.append(why)

    @property
    def correct(self):
        return not self.problems and self.attempted > 0


def machine():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "unknown")
    except OSError:
        model = platform.processor() or "unknown"
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions,
            "platform": platform.platform()}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _say(text):
    print(f"bench: {text}", flush=True)


def setup(name, seed, workdir):
    """Write the seeded inputs and return the Workload (outside timing)."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "input").mkdir(parents=True)
    rel = workdir.relative_to(ROOT).as_posix()
    wl = workloads.build(name, seed, f"{rel}/out", f"{rel}/input")
    for fname, text in wl.files.items():
        (workdir / "input" / fname).write_text(text, encoding="utf-8")
    return wl


def measure_end_to_end(run, wl, seconds, verdict, record):
    setup = []
    for i in range(SETUP_SAMPLES + 1):
        s = run.spawn_scaled(["-c", "import gfsl.cli"], "import")
        if s.rc != 0:
            raise RuntimeError(f"import gfsl.cli failed, see {run.workdir}")
        if i:  # the first import byte-compiles and fills the page cache
            setup.append(s)

    out = ROOT / wl.argv[wl.argv.index("--out") + 1]
    samples = []
    t_start = time.perf_counter()
    cycle_s = 0.0
    while len(samples) < MIN_SAMPLES or (
            time.perf_counter() - t_start + cycle_s <= seconds):
        if run.time_left() < CHILD_LIMIT_S / 4 and samples:
            break
        t_cycle = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        s = run.spawn_scaled(["-m", "gfsl.cli", *wl.argv], "cli")
        samples.append(s)
        verdict.add(out, wl.argv, s.rc)
        cycle_s = time.perf_counter() - t_cycle
    measured_s = time.perf_counter() - t_start

    metrics = {
        "setup_s": (_median(s.wall_s * s.scale for s in setup), "s"),
        "wall_norm_s": (_median(s.wall_s * s.scale for s in samples), "s"),
        "cpu_norm_s": (_median(s.cpu_s * s.scale for s in samples), "s"),
        "peak_rss_mb": (_median(s.rss_mib for s in samples), "MiB"),
        "pass_frac": (1.0 - verdict.failed / max(verdict.attempted, 1),
                      "ratio"),
    }
    raw = {"setup_s": _median(s.wall_s for s in setup),
           "wall_s": _median(s.wall_s for s in samples),
           "cpu_s": _median(s.cpu_s for s in samples),
           "reference_s": _median(s.ref_s for s in setup + samples)}
    record.update(raw_medians=raw, measured_s=measured_s,
                  setup_samples=[vars(s) for s in setup],
                  invocations=[vars(s) for s in samples])
    walls = [s.wall_s for s in samples]
    _say(f"raw: setup_s {raw['setup_s']:.4f} s, wall_s {raw['wall_s']:.4f} s "
         f"(min {min(walls):.4f}, max {max(walls):.4f}), cpu_s "
         f"{raw['cpu_s']:.4f} s, reference loop {raw['reference_s']:.4f} s "
         f"(nominal {REF_NOMINAL_S} s)")
    _say(f"{len(setup)} cold imports, then {len(samples)} invocations in "
         f"{measured_s:.1f} s (closed loop, 1 client)")
    for name, (value, unit) in metrics.items():
        _say(f"{name:12s} {value:.6g} {unit}")
    return metrics


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(run):
    """Import cost (s) from `python -X importtime -c "import gfsl.cli"`.

    gfsl: cumulative time of the `gfsl` package import, everything it
    pulls in included.  numpy, scipy: summed self time of their modules,
    i.e. their share of it.
    """
    s = run.spawn_scaled(["-X", "importtime", "-c", "import gfsl.cli"],
                         "importtime")
    if s.rc != 0:
        raise RuntimeError(f"import gfsl.cli failed, see {run.workdir}")
    totals = dict.fromkeys(("gfsl", "numpy", "scipy"), 0.0)
    text = (run.workdir / "importtime.stderr").read_text(encoding="utf-8")
    for m in _IMPORT_LINE.finditer(text):
        name = m.group(3)
        top = name.split(".")[0]
        if name == "gfsl":
            totals["gfsl"] = int(m.group(2)) * 1e-6 * s.scale
        elif top in ("numpy", "scipy"):
            totals[top] += int(m.group(1)) * 1e-6 * s.scale
    return totals


def measure_layers(run, wl, seconds, verdict, record):
    imports = [import_times(run) for _ in range(IMPORT_SAMPLES)]
    out = ROOT / wl.argv[wl.argv.index("--out") + 1]
    spans = run.workdir / "spans.json"
    plain, traced = [], []
    t_start = time.perf_counter()
    pair_s = 0.0
    while len(traced) < MIN_PAIRS or (
            time.perf_counter() - t_start + pair_s <= seconds):
        if run.time_left() < CHILD_LIMIT_S / 2 and traced:
            break
        t_pair = time.perf_counter()
        for trace_flag, results in ((False, plain), (True, traced)):
            shutil.rmtree(out, ignore_errors=True)
            args = [str(Path(replay.__file__)), "--request",
                    f"{wl.name}/{len(traced)}"]
            if trace_flag:
                args += ["--trace", "--spans", str(spans)]
            s = run.spawn_scaled([*args, "--", *wl.argv], "replay")
            lines = (run.workdir / "replay.stdout").read_text(
                encoding="utf-8").splitlines()
            if s.rc != 0 or not lines:
                raise RuntimeError(f"replay exited {s.rc}, see {run.workdir}")
            result = json.loads(lines[-1])
            result["scale"] = s.scale
            verdict.add(out, wl.argv, result["rc"])
            results.append(result)
        pair_s = time.perf_counter() - t_pair

    # Times are rescaled like the end-to-end ones; counts must repeat.
    metrics = {}
    for name in replay.metric_names():
        if name.endswith("_s"):
            metrics[name] = (_median(r["metrics"][name] * r["scale"]
                                     for r in traced), "s")
            continue
        values = [r["metrics"][name] for r in traced]
        if len(set(values)) != 1:
            verdict.problems.append(
                f"{name} differs between replays: {values}")
        metrics[name] = (values[0], "B" if "bytes" in name else "count")
    for pkg in ("gfsl", "numpy", "scipy"):
        metrics[f"import.{pkg}_s"] = (_median(t[pkg] for t in imports), "s")
    main_plain = [r["main_s"] * r["scale"] for r in plain]
    main_traced = [r["main_s"] * r["scale"] for r in traced]
    overhead = _median(main_traced) - _median(main_plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    absent = traced[-1]["absent"]
    record.update(imports=imports, replays_plain_s=main_plain,
                  replays_traced_s=main_traced, absent=absent,
                  spans_file=str(spans.relative_to(ROOT)))
    _say(f"replays: {len(plain)} untraced + {len(traced)} traced; "
         f"trace.overhead_s {overhead:.4f} s; spans in "
         f"{spans.relative_to(ROOT)}")
    if absent:
        _say(f"absent names (reported as 0): {', '.join(absent)}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description="gfsl benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not (ROOT / "src" / "gfsl" / "cli.py").is_file():
        print(f"bench: no gfsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = RUN_DIR / f"{opts.workload}-trace{opts.trace}"
    wl = setup(opts.workload, opts.seed, workdir)
    run = Run(workdir)
    record = {"workload": wl.name, "seed": opts.seed, "seconds": opts.seconds,
              "trace": opts.trace, "argv": ["gfsl", *wl.argv],
              "machine": machine()}
    _say(f"workload {wl.name}, seed {opts.seed}, {opts.seconds:g} s, "
         f"trace {opts.trace}")
    _say("argv: " + " ".join(record["argv"]))
    _say("machine: " + json.dumps(record["machine"], sort_keys=True))

    verdict = Verdict()
    measure = measure_layers if opts.trace else measure_end_to_end
    try:
        metrics = measure(run, wl, opts.seconds, verdict, record)
    except (RuntimeError, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    fail_frac = verdict.failed / max(verdict.attempted, 1)
    base_failed, base_rows = BASELINE_ROWS[wl.name]
    _say(f"rows: attempted {verdict.attempted}, failed {verdict.failed}, "
         f"fail_frac {fail_frac:.6g} (baseline {base_failed}/{base_rows} "
         f"= {base_failed / base_rows:.6g} per invocation)")
    if verdict.failures:
        _say("failing rows: " + ", ".join(sorted(verdict.failures)))
    _say("report sha256: " + json.dumps(verdict.digests, sort_keys=True))
    for problem in verdict.problems:
        _say(f"PROBLEM: {problem}")
    record.update(attempted=verdict.attempted, failed=verdict.failed,
                  fail_frac=fail_frac, failing_rows=sorted(verdict.failures),
                  digests=verdict.digests, problems=verdict.problems,
                  metrics={k: v for k, (v, _) in metrics.items()})
    (workdir / "record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
