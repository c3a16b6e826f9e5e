"""The benchmark's workloads: inputs generated from a seed, and output checks.

Each workload is one real ``torusbridge`` command.  ``prepare`` turns the
benchmark's ``--seed`` into that command's inputs, which here is its own
``--seed``; the command gets nothing else.  ``check`` raises
:class:`CheckFailed` when an output is wrong, so a fast but wrong program
counts as a failed run, not as a fast one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An output of a benchmarked command is missing or wrong."""


@dataclass(frozen=True)
class Job:
    """One command with its generated inputs.

    ``units`` is the work one run of the command does, in ``unit``;
    ``digested`` names the outputs whose bytes must repeat exactly when
    the job is run again (``"stdout"`` is the command's standard output).
    """

    workload: str
    args: tuple[str, ...]
    units: int
    unit: str
    size: dict
    digested: tuple[str, ...]
    writes_files: bool = True

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir)] if self.writes_files else list(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int], Job]
    check: Callable[[Job, Path, str], None]


def cli_seed(workload: str, seed: int) -> int:
    """The command's own ``--seed``, a function of workload and benchmark seed."""
    return random.Random(f"{workload}/{seed}").getrandbits(32)


# Outputs are read in blocks or line by line, never whole: a child's
# ru_maxrss starts from the high-water mark of the process that spawned it,
# so the benchmark's own memory must stay below any command's.

def digest(job: Job, out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256()
    for name in job.digested:
        h.update(name.encode() + b"\0")
        if name == "stdout":
            h.update(stdout.encode())
            continue
        with open(out_dir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _lines(path: Path):
    """The lines of an output file, without their line ends, one at a time."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise CheckFailed(f"missing artefact {path.name}") from None
    with fh:
        for line in fh:
            yield line.rstrip("\n")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- simulate-paths ---------------------------------------------------------

SIM_PATHS, SIM_STEPS, SIM_CUTOFF = 1000, 500, 0.5
# Standard errors allowed between mean(exp(log weight)) and 1.  Every seed
# is a new test; at 3 (criterion 4's level) one seed in 370 would fail by
# chance, and the benchmark runs dozens of seeds per comparison.
MAX_WEIGHT_Z = 4.0


def prepare_simulate(seed: int) -> Job:
    # sigma = 1: the weights are then a mean-1 martingale, as in criterion 4.
    args = ("simulate", "--model", "proposed", "--target", "0,0", "--sigma", "1",
            "--T", "1", "--steps", str(SIM_STEPS), "--paths", str(SIM_PATHS),
            "--seed", str(cli_seed("simulate-paths", seed)), "--cutoff", str(SIM_CUTOFF),
            "--workers", "1")
    return Job("simulate-paths", args, SIM_PATHS * SIM_STEPS, "path-steps",
               {"paths": SIM_PATHS, "steps": SIM_STEPS}, ("paths.csv", "endpoints.csv"))


def check_simulate(job: Job, out_dir: Path, stdout: str) -> None:
    """Row counts of both CSVs; each endpoint equals its path's last row;
    the Girsanov weights have mean 1."""
    n_paths, n_steps = job.size["paths"], job.size["steps"]
    ends = list(_lines(out_dir / "endpoints.csv"))
    _expect(len(ends) == 1 + n_paths,
            f"endpoints.csv has {len(ends) - 1} rows, expected {n_paths}")
    rows = _lines(out_dir / "paths.csv")
    _expect(next(rows, None) == "path_id,step,t,x1,x2", "paths.csv header")
    n_rows = 0
    for n_rows, row in enumerate(rows, start=1):
        pid, last_step = divmod(n_rows, n_steps + 1)
        if last_step or pid > n_paths:
            continue
        last = row.split(",")
        end = ends[pid].split(",")
        _expect(last[:2] == [str(pid - 1), str(n_steps)] and end[0] == str(pid - 1),
                f"path {pid - 1}: rows out of order")
        _expect([float(v) for v in last[3:5]] == [float(v) for v in end[1:3]],
                f"path {pid - 1}: endpoint {end[1:3]} differs from last row {last[3:5]}")
    _expect(n_rows == n_paths * (n_steps + 1),
            f"paths.csv has {n_rows} rows, expected {n_paths * (n_steps + 1)}")
    check_weight_mean([row.split(",")[-1] for row in ends[1:]])


def check_weight_mean(log_weights: list[str]) -> None:
    """Finite weights whose mean is 1 within MAX_WEIGHT_Z standard errors."""
    try:
        w = [math.exp(float(v)) for v in log_weights]
    except (ValueError, OverflowError):
        raise CheckFailed("a log weight is missing or not a number") from None
    _expect(all(math.isfinite(v) for v in w), "non-finite weight")
    n = len(w)
    mean = math.fsum(w) / n
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in w) / (n - 1) / n)
    _expect(abs(mean - 1.0) <= MAX_WEIGHT_Z * se,
            f"mean weight {mean:.5f} is more than {MAX_WEIGHT_Z} standard errors from 1")


# --- compare-exact ----------------------------------------------------------

CMP_PAIRS, CMP_STEPS = 2048, 1000
# Acceptance criterion 1's band for the coupled agreement rate.
CMP_BAND = (0.65, 0.92)


def prepare_compare(seed: int) -> Job:
    args = ("compare", "--sigma", "0.8", "--T", "1", "--steps", str(CMP_STEPS),
            "--pairs", str(CMP_PAIRS), "--truncation", "2",
            "--seed", str(cli_seed("compare-exact", seed)), "--workers", "2")
    return Job("compare-exact", args, 2 * CMP_PAIRS * CMP_STEPS, "path-steps",
               {"pairs": CMP_PAIRS, "steps": CMP_STEPS},
               ("agreement.csv", "agreement_summary.json"))


def check_compare(job: Job, out_dir: Path, stdout: str) -> None:
    """Agreement rate inside criterion 1's band, consistent with agreement.csv."""
    try:
        summary = json.loads((out_dir / "agreement_summary.json").read_text())
    except FileNotFoundError:
        raise CheckFailed("missing artefact agreement_summary.json") from None
    rows = list(_lines(out_dir / "agreement.csv"))
    n = job.size["pairs"]
    _expect(len(rows) == 1 + n, f"agreement.csv has {len(rows) - 1} rows, expected {n}")
    n_agree = sum(row.rsplit(",", 1)[1] == "1" for row in rows[1:])
    _expect(summary.get("n_pairs") == n and summary.get("n_agree") == n_agree,
            f"summary counts {summary.get('n_agree')}/{summary.get('n_pairs')} "
            f"disagree with agreement.csv ({n_agree}/{n})")
    rate = summary.get("rate")
    _expect(rate == n_agree / n, f"summary rate {rate} disagrees with agreement.csv ({n_agree}/{n})")
    _expect(CMP_BAND[0] <= rate <= CMP_BAND[1], f"agreement rate {rate} outside {list(CMP_BAND)}")


# --- check-density ----------------------------------------------------------

# Density-kernel point evaluations of criteria 6 and 7: 100 accepted points
# with 2 coordinates and 2 one-sided evaluations each, plus 3 targets on a
# 400 x 400 grid.
DENSITY_POINTS = 100 * 2 * 2 + 3 * 400 * 400


def prepare_check(seed: int) -> Job:
    # Criteria 6 and 7 pin their own seeds: the benchmark seed has no effect.
    return Job("check-density", ("check", "--criterion", "6", "--criterion", "7"),
               DENSITY_POINTS, "density points", {}, ("stdout",), writes_files=False)


def check_check(job: Job, out_dir: Path, stdout: str) -> None:
    _expect("2/2 criteria passed" in stdout, "check did not print '2/2 criteria passed'")


WORKLOADS = {w.name: w for w in [
    Workload("simulate-paths",
             "Writes every path to paths.csv, so CSV formatting and path memory dominate; "
             "the Girsanov weight pass up to S = 0.5 rides along. Engine changes barely move it.",
             prepare_simulate, check_simulate),
    Workload("compare-exact",
             "Criterion 1's setting: the true-bridge lattice softmax dominates, and two "
             "chunks per model exercise the engine's thread pool.",
             prepare_compare, check_compare),
    Workload("check-density",
             "Criteria 6 and 7 spend their time in the wrapped Gaussian density and run "
             "no engine code, so step-loop changes should leave it unchanged.",
             prepare_check, check_check),
]}
