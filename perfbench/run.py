"""Benchmark of the torusbridge CLI: three commands, each in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--record FILE]

One run repeats the workload's command, with inputs generated from
``--seed``, for ``--seconds`` seconds after an untimed warm-up, times
every process from outside, and checks every output.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's commands: ``wall_s`` (spawn to exit), ``setup_s`` (spawn until
``torusbridge.cli`` is imported), ``work_per_s`` (the workload's units
over ``wall_s - setup_s``) and ``peak_rss_mb`` (the command process's
``ru_maxrss``).  The three timings are in seconds at a reference host
speed: while a command runs, ``SpeedSampler`` times a small fixed piece of
work in this process again and again, and the command's times are
multiplied by ``REFERENCE_SAMPLE_S`` over its mean time and by the share
of the machine's CPU time the host did not steal (``speed_scale``), so
that a shared host's swings in speed cancel.  The unscaled medians are
printed above the result line.  ``--trace 1`` alternates untraced and traced commands
and reports the per-layer metrics of tracer.py, medians over the traced
ones.  ``--workload all`` runs every workload both ways, prints a table
and, with ``--record``, writes it with the environment to a JSON file.

The command is run from the checkout's ``src`` directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Every run must end within 180 s, the last command included.
DEADLINE_S = 170.0
# (name, unit); error_rate is reported as attempted/failed beside them.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB")]
# SpeedSampler's work: how often it runs and how many floats it formats.
SAMPLE_EVERY_S = 0.05
SAMPLE_FLOATS = 2000
# The work's time at the reference speed, about its time on a 2-vCPU Intel
# Xeon host while a command runs beside it.  Scaled timings are in seconds
# at that speed.
REFERENCE_SAMPLE_S = 0.0012
# At most the engine's own worker threads: no BLAS or OpenMP pools.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


@dataclass
class Rep:
    """One command process: its timings, and why it failed if it did."""

    wall_s: float
    setup_s: float
    rss_mb: float
    traced: bool
    failure: str | None = None
    # SpeedSampler's mean time while the command ran.
    sample_s: float = REFERENCE_SAMPLE_S
    # Share of the machine's busy CPU time that the host stole meanwhile.
    steal_share: float = 0.0
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``); return (status, rusage, exit time)."""
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                proc.kill()

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
        with lock:
            exited = True
    finally:
        timer.cancel()
        if not exited:
            proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, end


class SpeedSampler(threading.Thread):
    """Measures the host's speed while a command runs.

    Every SAMPLE_EVERY_S seconds it formats the next SAMPLE_FLOATS floats
    of a fixed 8 MB array and joins them, as the CLI's CSV writer does, and
    times that in CPU time of its own thread, so time spent descheduled
    does not count.  It uses about 2.5 % of one CPU.  On a shared host the
    speed of identical work swings by tens of percent within seconds; this
    work's time follows the command's because it runs at the same moments.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stopped = threading.Event()

    def run(self):
        import numpy as np

        values = np.random.default_rng(0).random(1_000_000)
        pos = 0
        while True:
            start = time.thread_time()
            ",".join([f"{v:.6f}" for v in values[pos:pos + SAMPLE_FLOATS].tolist()])
            self.samples.append(time.thread_time() - start)
            pos = (pos + SAMPLE_FLOATS) % len(values)
            if self.stopped.wait(SAMPLE_EVERY_S):
                return

    def stop(self) -> float:
        """Stop sampling; return the mean time of the work."""
        self.stopped.set()
        self.join()
        return statistics.fmean(self.samples)


def cpu_ticks() -> tuple[int, int]:
    """The machine's busy and stolen CPU clock ticks so far, from /proc/stat.

    Busy counts every tick that was not idle or waiting for I/O, stolen
    ones included.  Where /proc/stat cannot be read, both are 0.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields + [0] * (8 - len(fields))
    return user + nice + system + irq + softirq + steal, steal


def spawn(job: workloads.Job | None, rep_dir: Path, timeout: float,
          run_id: int | None = None) -> tuple[Rep, str]:
    """Run ``job`` (or, for None, only the import) in a fresh process."""
    rep_dir.mkdir()
    ready = rep_dir / "ready.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(ready)]
    if run_id is not None:
        cmd += ["--trace", str(rep_dir / "spans.json"), str(run_id)]
    cmd += ["--", *(job.argv(rep_dir / "out") if job else [])]
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        sampler = SpeedSampler()
        sampler.start()
        try:
            busy0, stolen0 = cpu_ticks()
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=rep_dir, env=CHILD_ENV)
            rc, usage, end = _wait(proc, timeout)
            busy1, stolen1 = cpu_ticks()
        finally:
            sample_s = sampler.stop()
    stdout = (rep_dir / "stdout.txt").read_text(errors="replace")
    rep = Rep(wall_s=end - start, setup_s=0.0, rss_mb=usage.ru_maxrss / 1024,
              traced=run_id is not None, sample_s=sample_s,
              steal_share=(stolen1 - stolen0) / max(busy1 - busy0, 1))
    if rc != 0:
        tail = (rep_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        rep.failure = f"exit code {rc}" + (f": {tail[0]}" if tail else "")
        return rep, stdout
    rep.setup_s = json.loads(ready.read_text())["ready"] - start
    if usage.ru_maxrss <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss:
        # A child's ru_maxrss starts at its spawner's high-water mark.
        rep.failure = "peak RSS not above the benchmark's own, so not measured"
    return rep, stdout


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns its metrics and counts."""
    workload = workloads.WORKLOADS[name]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    reps: list[Rep] = []
    try:
        job = workload.prepare(seed)
        print(f"workload {name}: seed {seed}, command: torusbridge {' '.join(job.argv(Path('OUT')))}")
        # Untimed warm-up: byte-compiles the package and fills the file cache.
        spawn(None, work / "warmup", deadline - time.monotonic())
        reference = None
        window_end = time.monotonic() + seconds
        # Start a command only if it is expected to end inside the window, so
        # a run takes ``seconds`` whatever the command's length.
        while time.monotonic() < deadline and (
                len(reps) < 1 + trace
                or time.monotonic() + statistics.median(r.wall_s for r in reps) <= window_end):
            traced = trace and len(reps) % 2 == 1
            rep_dir = work / f"rep{len(reps)}"
            rep, stdout = spawn(job, rep_dir, deadline - time.monotonic(),
                                run_id=len(reps) if traced else None)
            if rep.failure is None:
                reference, rep.failure = _verify(workload, job, rep_dir, stdout, reference)
            if rep.failure is None and traced:
                rep.failure = _read_trace(rep, rep_dir / "spans.json")
            reps.append(rep)
            shutil.rmtree(rep_dir)
            print(f"  rep {len(reps) - 1}{' traced' if traced else ''}: wall {rep.wall_s:.3f} s, "
                f"setup {rep.setup_s:.3f} s, rss {rep.rss_mb:.1f} MB, "
                f"speed sample {rep.sample_s * 1000:.4f} ms, steal {rep.steal_share:.3f}, "
                f"{'ok' if rep.failure is None else 'FAILED: ' + rep.failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still in it
    return _summarise(job, reps, trace)


def speed_scale(rep: Rep) -> float:
    """What a command's times are multiplied by to give them at the reference speed.

    A shared host slows a command in two ways: its CPUs run slower, which
    the sampler's CPU time shows, and it takes CPU time away, which the
    steal ticks show and the sampler's CPU time does not.  The sampler's
    work is benchmark code: its time does not depend on the program, and
    the same rule applies on both sides of a comparison, so a change to the
    program moves scaled times by the share it would move unscaled ones on
    a steady host.
    """
    return REFERENCE_SAMPLE_S / rep.sample_s * (1.0 - rep.steal_share)


def _verify(workload, job, rep_dir: Path, stdout: str, reference: str | None):
    """Check one command's outputs; returns (reference digest, failure or None).

    The first good output is checked in full.  Later runs of the same job
    must repeat its bytes exactly, which also proves them correct.
    """
    out = rep_dir / "out"
    try:
        got = workloads.digest(job, out, stdout)
        if reference is None:
            workload.check(job, out, stdout)
            return got, None
    except FileNotFoundError as exc:
        return reference, f"missing artefact {Path(exc.filename).name}"
    except workloads.CheckFailed as exc:
        return reference, f"output check: {exc}"
    except (ValueError, IndexError) as exc:
        return reference, f"output check: malformed output ({exc})"
    if got != reference:
        return reference, "outputs differ from the first run of the same inputs"
    return reference, None


def _read_trace(rep: Rep, spans_file: Path) -> str | None:
    try:
        trace = json.loads(spans_file.read_text())
    except FileNotFoundError:
        return "traced run wrote no spans"
    rep.layers = tracer.layer_metrics(trace)
    rep.absent = trace["absent"]
    if rep.layers["trace.self_sum_s"] > rep.wall_s:
        return (f"self times on one thread add up to {rep.layers['trace.self_sum_s']:.3f} s, "
                f"more than the traced wall time {rep.wall_s:.3f} s")
    return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _summarise(job: workloads.Job, reps: list[Rep], trace: bool) -> dict:
    good = [r for r in reps if r.failure is None] or reps
    failed = sum(r.failure is not None for r in reps)
    plain = [r for r in good if not r.traced]
    result = {
        "workload": job.workload,
        "attempted": len(reps),
        "failed": failed,
        "runs": len(plain),
        "unit": job.unit,
        "units": job.units,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": _median([r.wall_s * speed_scale(r) for r in plain]),
            "setup_s": _median([r.setup_s * speed_scale(r) for r in plain]),
            "work_per_s": _median([job.units / ((r.wall_s - r.setup_s) * speed_scale(r))
                                   for r in plain]),
            "peak_rss_mb": _median([r.rss_mb for r in plain]),
        }
        result["speed_sample_s"] = _median([r.sample_s for r in plain])
        result["steal_share"] = _median([r.steal_share for r in plain])
        result["unscaled"] = {
            "wall_s": _median([r.wall_s for r in plain]),
            "setup_s": _median([r.setup_s for r in plain]),
            "work_per_s": _median([job.units / (r.wall_s - r.setup_s) for r in plain]),
        }
        return result
    traced = [r for r in good if r.traced]
    layers = {name: _median([r.layers.get(name, 0.0) for r in traced])
              for name, _, _ in tracer.PER_LAYER}
    layers["trace.wall_s"] = _median([r.wall_s for r in traced])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - _median([r.wall_s for r in plain])
    result["traced_runs"] = len(traced)
    result["metrics"] = layers
    result["absent_layers"] = sorted({a for r in traced for a in r.absent})
    return result


def environment() -> dict:
    """Machine, interpreter and library versions, and the tree's git state."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_revision": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=False).stdout.strip()
        env["git_revision"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def _result_line(results: list[dict]) -> str:
    units = {**dict(END_TO_END), **{name: unit for name, unit, _ in tracer.PER_LAYER}}
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = name if len(results) == 1 else f"{res['workload']}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _table(plain: list[dict], traced: list[dict]) -> list[str]:
    lines = [f"{'workload':<18}{'runs':>5}{'wall_s':>10}{'setup_s':>10}{'work_per_s':>14}"
             f"{'peak_rss_mb':>13}{'error_rate':>12}{'trace_overhead_s':>18}  work unit",
             f"{'':<18}{'':>5}{'s':>10}{'s':>10}{'1/s':>14}{'MB':>13}{'failed/runs':>12}{'s':>18}"]
    for res, tr in zip(plain, traced):
        m = res["metrics"]
        lines.append(
            f"{res['workload']:<18}{res['runs']:>5}{m['wall_s']:>10.3f}{m['setup_s']:>10.3f}"
            f"{m['work_per_s']:>14.4g}{m['peak_rss_mb']:>13.1f}"
            f"{res['failed'] / res['attempted']:>12.3f}"
            f"{tr['metrics']['trace.overhead_s']:>18.3f}  {res['unit']}")
        if tr["absent_layers"]:
            lines.append(f"  absent layers: {', '.join(tr['absent_layers'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all: write the results as JSON to this file")
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "torusbridge" / "cli.py").is_file():
        print(f"error: no torusbridge source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    if ns.workload != "all":
        res = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
        print(f"error_rate {res['failed']}/{res['attempted']}; work unit: {res['unit']} "
              f"({res['units']} per command)")
        if ns.trace:
            print(f"absent layers: {res['absent_layers'] or 'none'}")
        else:
            print(f"median speed sample {res['speed_sample_s'] * 1000:.4f} ms "
                  f"(reference {REFERENCE_SAMPLE_S * 1000} ms), median steal share "
                  f"{res['steal_share']:.4f}; unscaled medians: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in res["unscaled"].items()))
        print("environment: " + json.dumps(env))
        print(_result_line([res]))
        return 0

    plain, traced = [], []
    for name in workloads.WORKLOADS:
        plain.append(run_workload(name, ns.seed, ns.seconds, False))
        traced.append(run_workload(name, ns.seed, ns.seconds, True))
    print("\n".join(_table(plain, traced)))
    if ns.record:
        record = {
            "environment": env,
            "seed": ns.seed,
            "seconds": ns.seconds,
            "workloads": {
                p["workload"]: {
                    "why": workloads.WORKLOADS[p["workload"]].why,
                    "unit": p["unit"], "units_per_command": p["units"],
                    "runs": p["runs"], "attempted": p["attempted"], "failed": p["failed"],
                    "error_rate": p["failed"] / p["attempted"],
                    "end_to_end": p["metrics"],
                    "end_to_end_unscaled": p["unscaled"],
                    "speed_sample_s": p["speed_sample_s"],
                    "steal_share": p["steal_share"],
                    "traced_runs": t["traced_runs"], "absent_layers": t["absent_layers"],
                    "per_layer": t["metrics"],
                }
                for p, t in zip(plain, traced)
            },
        }
        Path(ns.record).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {ns.record}")
    print("environment: " + json.dumps(env))
    print(_result_line(plain + traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
