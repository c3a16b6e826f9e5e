"""Command-line front-end for batch simulation and CSV export.

Subcommands:
  simulate   run a batch and write paths.csv, endpoints.csv, manifest.json
  compare    run coupled model pairs and write agreement.csv
  field      evaluate a drift vector field on a grid into field.csv
  weights    recompute a finished run from its manifest and emit log weights
  check      run the acceptance suite and print one line per criterion

All floating-point CSV values are serialised with 17 significant digits
("%.17g", enough to round-trip a double), and every run is a pure function
of its flags (one master --seed), so re-runs produce byte-identical CSV
files.  Each row is formatted from one "%" template; paths.csv formats its
step,t columns once per run and writes one text block per path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import agreement_rate, drift_field
from .drift import VARIANTS
from .engine import (
    SimConfig,
    config_from_dict,
    config_to_dict,
    model_class,
    model_from_dict,
    simulate_batch,
)

__all__ = ["main"]


def _pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects 'x,y'; got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{flag} expects two numbers; got {text!r}") from None


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and then ``rows``, text blocks that each end in a newline."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


def _offset_text(k: list[int], unresolved: bool) -> str:
    """The two columns of a lattice offset, left empty on the cut locus."""
    return "," if unresolved else "%d,%d" % (k[0], k[1])


# The namespace attribute (flag --<attr>) that sets each model field.  Unset flags leave
# a field to the config file, then to the defaults below or the model's own.
_FIELD_FLAGS = {"sigma": "sigma", "horizon": "T", "endpoint": "endpoint", "target": "target",
                "scale_by_sigma_sq": "scale_drift_by_sigma_sq"}
_PAIR_FIELDS = ("endpoint", "target")


def _merge_model(variant: str | None, cfg_model: dict, ns: argparse.Namespace):
    """Model description from flags, with a config file filling the gaps."""
    if not isinstance(cfg_model, dict):
        raise ValueError(f"a model block must be a JSON object; got {type(cfg_model).__name__}")
    variant = variant or cfg_model.get("variant")
    if variant is None:
        raise ValueError("a model is required (--model or --config)")
    base = dict(cfg_model) if cfg_model.get("variant") == variant else {}
    base.update(variant=variant, sigma=cfg_model.get("sigma", 1.0),
                horizon=cfg_model.get("horizon", 1.0))
    for name in [f.name for f in fields(model_class(variant)) if f.name in _FIELD_FLAGS]:
        value = getattr(ns, _FIELD_FLAGS[name], None)
        if value is not None:
            base[name] = list(_pair(value, f"--{name}")) if name in _PAIR_FIELDS else value
        elif name in _PAIR_FIELDS and name not in base:
            raise ValueError(f"--{name} x,y is required for {variant}")
    return model_from_dict(base)


def _load_config_file(path: str) -> tuple[dict, dict]:
    """Read a config file (bare config block or a full manifest)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object; got {type(data).__name__}")
    if "config" in data and isinstance(data["config"], dict):
        output = data.get("output", {})
        if not isinstance(output, dict):
            raise ValueError(f"an output block must be a JSON object; got {type(output).__name__}")
        return data["config"], output
    return data, {}


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg_block, out_block = _load_config_file(ns.config) if ns.config else ({}, {})
    model = _merge_model(ns.model, cfg_block.get("model", {}), ns)
    start = _pair(ns.start, "--start") if ns.start else cfg_block.get("start", (0.0, 0.0))
    config = SimConfig(
        model=model,
        start=start,
        n_steps=ns.steps if ns.steps is not None else cfg_block.get("n_steps", 1000),
        seed=ns.seed if ns.seed is not None else cfg_block.get("seed", 0),
        n_paths=ns.paths if ns.paths is not None else cfg_block.get("n_paths", 1),
        record_increments=ns.record_increments or cfg_block.get("record_increments", False),
    )
    thin = ns.thin if ns.thin is not None else out_block.get("thin", 1)
    if isinstance(thin, bool) or not isinstance(thin, int):
        raise ValueError(f"thin must be an integer; got {thin!r}")
    if thin < 1:
        raise ValueError(f"--thin must be >= 1; got {thin}")
    cutoff = ns.cutoff if ns.cutoff is not None else out_block.get("weight_cutoff")

    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    batch = simulate_batch(config, keep_paths=True, weight_cutoff=cutoff)

    n = config.n_steps
    steps = np.arange(0, n + 1, thin)
    if steps[-1] != n:
        steps = np.append(steps, n)  # the terminal state is always kept
    # The step,t columns are the same for every path, so they are formatted
    # once; NUL marks where each path's path_id goes.
    body = "".join("\0%d,%.17g,%%.17g,%%.17g\n" % row
                   for row in zip(steps.tolist(), config.time_grid()[steps].tolist()))
    blocks = (body.replace("\0", "%d," % pid) % tuple(path.states[steps].ravel().tolist())
              for pid, path in enumerate(batch.paths))
    _write_csv(out_dir / "paths.csv", "path_id,step,t,x1,x2", blocks)

    logw = batch.log_weights
    logw_text = ["%.17g" % w for w in logw.tolist()] if logw is not None else [""] * batch.n_paths
    rows = ("%d,%.17g,%.17g,%s,%d,%s\n" % (pid, *x, _offset_text(k, tie), tie, lw)
            for pid, (x, k, tie, lw) in enumerate(zip(
                batch.terminal_points.tolist(), batch.limiting_lattice_points.tolist(),
                batch.unresolved.tolist(), logw_text)))
    _write_csv(out_dir / "endpoints.csv", "path_id,xT1,xT2,k1,k2,unresolved,log_weight", rows)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "config": config_to_dict(config),
        "output": {"dir": str(out_dir), "thin": thin, "weight_cutoff": cutoff},
        "artifacts": ["paths.csv", "endpoints.csv", "manifest.json"],
        "wall_time_s": time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {batch.n_paths} paths to {out_dir} "
          f"({manifest['wall_time_s']:.2f}s)")
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    start = _pair(ns.start, "--start")
    ns.endpoint = ns.endpoint or ns.target

    def build(variant: str) -> SimConfig:
        return SimConfig(model=_merge_model(variant, {}, ns), start=start,
                         n_steps=ns.steps, seed=ns.seed, n_paths=ns.pairs)

    report = agreement_rate(build(ns.model_a), build(ns.model_b))

    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = ("%d,%s,%s,%d\n" % (pid, _offset_text(ka, tie_a), _offset_text(kb, tie_b), agree)
            for pid, (ka, tie_a, kb, tie_b, agree) in enumerate(zip(
                report.offsets_a.tolist(), report.unresolved_a.tolist(),
                report.offsets_b.tolist(), report.unresolved_b.tolist(),
                report.agree.tolist())))
    _write_csv(out_dir / "agreement.csv",
               "pair_id,k1_prop,k2_prop,k1_true,k2_true,agree", rows)
    summary = {
        "n_pairs": report.n_pairs,
        "n_agree": report.n_agree,
        "rate": report.rate,
        "wilson_95": [report.wilson_low, report.wilson_high],
        "n_unresolved": report.n_unresolved,
        "config_digest": report.config_digest,
    }
    (out_dir / "agreement_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"agreement rate {report.rate:.4f} "
          f"(wilson 95% [{report.wilson_low:.4f}, {report.wilson_high:.4f}], "
          f"{report.n_agree}/{report.n_pairs})")
    return 0


def cmd_field(ns: argparse.Namespace) -> int:
    model = _merge_model(ns.model, {}, ns)
    rect = [float(v) for v in ns.rect.split(",")]
    if len(rect) != 4:
        raise ValueError(f"--rect expects 'x1min,x1max,x2min,x2max'; got {ns.rect!r}")
    points, vectors = drift_field(
        model, ns.t, (rect[0], rect[1]), (rect[2], rect[3]), ns.grid
    )
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ("%.17g,%.17g,%.17g,%.17g\n" % (*p, *b)
            for p, b in zip(points.tolist(), vectors.tolist()))
    _write_csv(out_dir / "field.csv", "x1,x2,b1,b2", rows)
    print(f"wrote {len(points)} field samples to {out_dir / 'field.csv'}")
    return 0


def cmd_weights(ns: argparse.Namespace) -> int:
    manifest = json.loads(Path(ns.manifest).read_text())
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ValueError(f"{ns.manifest} does not look like a run manifest")
    config = config_from_dict(manifest["config"])
    batch = simulate_batch(config, keep_paths=False, weight_cutoff=ns.cutoff)
    out_dir = Path(ns.out) if ns.out else Path(ns.manifest).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ("%d,%.17g\n" % row for row in enumerate(batch.log_weights.tolist()))
    _write_csv(out_dir / "weights.csv", "path_id,log_weight", rows)
    print(f"wrote {batch.n_paths} log weights to {out_dir / 'weights.csv'}")
    return 0


def cmd_check(ns: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(ns.criterion)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _add_common_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=None, help="diffusion coefficient (> 0)")
    p.add_argument("--T", type=float, default=None, help="time horizon (> 0)")
    p.add_argument("--target", default=None, help="conditioning torus point 'x,y' in [-1/2,1/2)^2")
    p.add_argument("--endpoint", default=None, help="plane endpoint 'x,y' (euclid-bridge)")


def _add_ignored_flags(p: argparse.ArgumentParser, *names: str) -> None:
    # Batches run on one thread and the true bridge sums every lift, so --workers
    # and --truncation do nothing; they stay so that older command lines still parse.
    for name in names:
        p.add_argument(f"--{name}", type=int, default=None,
                       help="has no effect; accepted for older command lines")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbridge",
        description="Simulate Brownian bridges on the flat torus and export CSV diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a batch and write paths/endpoints/manifest")
    p.add_argument("--model", choices=list(VARIANTS), default=None)
    _add_common_model_flags(p)
    p.add_argument("--steps", type=int, default=None, help="number of time steps (dt = T/steps)")
    p.add_argument("--paths", type=int, default=None, help="number of paths")
    p.add_argument("--seed", type=int, default=None, help="master seed (all randomness)")
    p.add_argument("--start", default=None, help="start point 'x,y' (default 0,0)")
    p.add_argument("--record-increments", action="store_true",
                   help="store Wiener increments on the paths")
    p.add_argument("--scale-drift-by-sigma-sq", dest="scale_drift_by_sigma_sq",
                   action="store_true", default=None,
                   help="multiply the nearest-lift drift by sigma^2")
    p.add_argument("--thin", type=int, default=None,
                   help="write every m-th state to paths.csv (terminal state always kept)")
    p.add_argument("--cutoff", type=float, default=None,
                   help="grid time S in (0,T): also emit Girsanov log weights on [0,S]")
    p.add_argument("--config", default=None,
                   help="JSON config (a manifest 'config' block or a full manifest)")
    p.add_argument("--out", default=".", help="output directory")
    _add_ignored_flags(p, "workers", "truncation")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="coupled model pairs and agreement rate")
    _add_common_model_flags(p)
    p.add_argument("--model-a", choices=list(VARIANTS), default="proposed",
                   help="first model (default proposed)")
    p.add_argument("--model-b", choices=list(VARIANTS), default="true-bridge",
                   help="second model (default true-bridge)")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--pairs", type=int, default=1000, help="number of coupled pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default="0,0")
    p.add_argument("--out", default=".")
    _add_ignored_flags(p, "workers", "truncation")
    p.set_defaults(func=cmd_compare, target="0,0")

    p = sub.add_parser("field", help="drift vector field on a grid, written to field.csv")
    p.add_argument("--model", choices=list(VARIANTS), default="proposed")
    _add_common_model_flags(p)
    p.add_argument("--t", type=float, required=True, help="evaluation time, 0 <= t < T")
    p.add_argument("--grid", type=int, default=21, help="grid resolution per axis (>= 2)")
    p.add_argument("--rect", default="-0.5,0.5,-0.5,0.5",
                   help="rectangle 'x1min,x1max,x2min,x2max'")
    p.add_argument("--out", default=".")
    _add_ignored_flags(p, "truncation")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("weights", help="recompute a run from its manifest and emit log weights")
    p.add_argument("--manifest", required=True, help="manifest.json of a finished run")
    p.add_argument("--cutoff", type=float, required=True,
                   help="grid time S in (0,T) the weights integrate to")
    p.add_argument("--out", default=None, help="output directory (default: manifest's)")
    _add_ignored_flags(p, "workers")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--criterion", type=int, action="append", default=None,
                   help="criterion number to run (repeatable; default all)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: e.g. a huge --grid
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
