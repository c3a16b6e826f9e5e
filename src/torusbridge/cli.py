"""Command-line front-end for batch simulation and CSV export.

Subcommands:
  simulate   run a batch and write paths.csv, endpoints.csv, manifest.json
  compare    run coupled model pairs and write agreement.csv
  field      evaluate a drift vector field on a grid into field.csv
  weights    recompute a finished run from its manifest and emit log weights
  check      run the acceptance suite and print one line per criterion

Every floating-point CSV value is the bytes of "%.17g" (17 significant
digits, enough to round-trip a double), and every run is a pure function of
its flags (one master --seed), so re-runs produce byte-identical CSV files.
The floats are formatted in numpy, a block at a time, by ``_format_g17``:
for 1e-4 <= |v| < 1e16 it computes the correctly rounded 17-digit decimal
exactly, with Dekker's error-free product, and lays out its digits from
tables; every other value goes through "%.17g" itself.  Each row is one
bytes "%" template with the formatted floats as "%s" fields; paths.csv
formats its step,t columns once per run and x1,x2 a few paths at a time,
and writes one text block per path.
"""

from __future__ import annotations

import argparse
import json
import math
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
    model_to_dict,
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
    """Write ``header`` and then ``rows``, byte blocks that each end in a newline."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(rows)


def _offset_text(k: list[int], unresolved: bool) -> bytes:
    """The two columns of a lattice offset, left empty on the cut locus."""
    return b"," if unresolved else b"%d,%d" % (k[0], k[1])


# Exact "%.17g" in numpy.  For 1e-4 <= |v| < 1e16, "%.17g" rounds v half-even
# to the 17-digit integer D = round(|v| 10^(16-E)), E = floor(log10 |v|), and
# prints D's digits in fixed notation with the point after digit E (or behind
# "0." and -E-1 zeros), trailing fraction zeros dropped.  Every step is exact:
# - E is floor(log10 |v|) moved by at most one step, by comparing |v| with the
#   smallest double >= 10^E, which is comparing the exact |v| 10^(16-E) with 10^16;
# - 10^(16-E) has 16-E <= 20, so it is a double, and Dekker's TwoProduct with
#   Veltkamp splitting (Dekker 1971, Numer. Math. 18) gives |v| 10^(16-E) as
#   hi + lo exactly;
# - hi lies in [1e16, 1e17], where doubles are even integers, so D is
#   hi + rint(lo): rint rounds half-even, and hi does not change the parity;
# - D < 10^17, with no carry into E + 1: the largest double below 10^(E+1) has
#   |v| 10^(16-E) more than 8 below 10^17 for every E here (the tests format it).
# Every other value (zero, |v| < 1e-4, |v| >= 1e16, nan, inf) takes "%.17g" itself.
_G17_BLOCK = 4096  # floats per block: bounds the scratch memory of one call
_E_MIN, _E_MAX = -4, 15  # decimal exponents of the fast path


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10^e."""
    f = float(f"1e{e}")  # correctly rounded
    num, den = f.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return math.nextafter(f, math.inf) if below else f


def _veltkamp(a):
    """Split doubles into halves of at most 26 significant bits, a = hi + lo exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# _POW10_CEIL[E + _CEIL_OFFSET] is the smallest double >= 10^E, for E from
# _E_MIN - 1 (log10 may round down past 1e-4) to _E_MAX + 2.
_CEIL_OFFSET = 1 - _E_MIN
_POW10_CEIL = np.array([_ceil_pow10(e) for e in range(_E_MIN - 1, _E_MAX + 3)])
_POW10 = np.array([float(10**k) for k in range(17 - _E_MIN)])  # 10^k, exact
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# The digits d0..d16 of D sit in a 24-byte scratch row in reverse, d16 first, so
# the number of trailing zeros is the index of the first byte that is not "0".
# _QUADS[q] is the 4 digits of q in reverse, as one uint32 of ASCII, built
# from the 2 reversed digits of each pair (a little-endian uint16).
_PAIRS = np.frombuffer("".join(f"{p:02d}"[::-1] for p in range(100)).encode(), np.uint16)
_QUADS = (_PAIRS.astype(np.uint32)[:, None] << 16 | _PAIRS).ravel()
_NUL, _MINUS, _ZERO, _POINT = 17, 18, 19, 20  # scratch columns of the fixed bytes


def _layout(e: int, neg: bool, sig: int) -> list[int]:
    """Scratch columns of the 24 output bytes of a value with exponent ``e``,
    sign ``neg`` and ``sig`` significant digits."""
    digits = [16 - i for i in range(sig)]  # d_i is column 16 - i
    head = [_MINUS] if neg else []
    if e < 0:
        cols = head + [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
    else:
        whole = [16 - i for i in range(e + 1)]  # the integer part, zeros past sig included
        cols = head + whole + ([_POINT] + digits[e + 1:] if sig > e + 1 else [])
    return cols + [_NUL] * (24 - len(cols))


# Row (e - _E_MIN, neg, sig - 1) of the gather table, flattened.
_GATHER = np.array([_layout(e, neg, sig) for e in range(_E_MIN, _E_MAX + 1)
                    for neg in (False, True) for sig in range(1, 18)], dtype=np.intp)


def _format_g17(values) -> np.ndarray:
    """``b"%.17g" % v`` for every double ``v`` of ``values``, as an S24 array
    of the same shape (an item drops its NUL padding)."""
    arr = np.asarray(values, dtype=float)
    flat = arr.ravel()
    out = np.empty(flat.size, dtype="S24")
    rows = min(flat.size, _G17_BLOCK)
    scratch = np.zeros((rows, 24), dtype=np.uint8)
    scratch[:, [_MINUS, _ZERO, _POINT]] = np.frombuffer(b"-0.", np.uint8)
    quads = np.empty((rows, 4), dtype=np.int64)
    index = np.empty((rows, 24), dtype=np.intp)
    offsets = np.arange(0, rows * 24, 24)[:, None]
    for lo in range(0, flat.size, _G17_BLOCK):
        x, text = flat[lo:lo + _G17_BLOCK], out[lo:lo + _G17_BLOCK]
        m = x.size
        slow = _g17_block(x, scratch[:m], quads[:m], index[:m], offsets[:m],
                          text.view(np.uint8).reshape(m, 24))
        for i in np.flatnonzero(slow).tolist():
            text[i] = b"%.17g" % x[i]
    return out.reshape(arr.shape)


def _g17_block(x, scratch, quads, index, offsets, text) -> np.ndarray:
    """Write the fast-path bytes of ``x`` into ``text``; return the mask of
    values left to "%.17g"."""
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e16))
    a[slow] = 1.0  # any fast-path value: its row is overwritten
    e = np.floor(np.log10(a)).astype(np.intp)  # E, or one off near a power of ten
    e -= a < _POW10_CEIL[e + _CEIL_OFFSET]
    e += a >= _POW10_CEIL[e + _CEIL_OFFSET + 1]
    k = 16 - e
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    a_hi, a_lo = _veltkamp(a)
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # d = lead 10^16 + upper 10^8 + lower; four 4-digit quads, lowest first.
    high = d // 10**8
    lower = d - high * 10**8
    lead = high // 10**8
    upper = high - lead * 10**8
    for j, half in ((0, lower), (2, upper)):
        quads[:, j + 1] = half // 10**4
        quads[:, j] = half - quads[:, j + 1] * 10**4
    # mode="clip" spares take a buffered bounds check; every index is in range.
    np.take(_QUADS, quads, out=scratch.view(np.uint32)[:, :4], mode="clip")
    scratch[:, 16] = lead + ord("0")
    trailing_zeros = np.argmax(scratch[:, :17] != ord("0"), axis=1)
    key = ((e - _E_MIN) * 2 + np.signbit(x)) * 17 + (16 - trailing_zeros)
    np.take(_GATHER, key, axis=0, out=index, mode="clip")
    index += offsets
    np.take(scratch.reshape(-1), index, out=text, mode="clip")
    return slow


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
    # Flags over the file's block over the defaults; the one reader rejects unknown keys.
    flags = {"start": _pair(ns.start, "--start") if ns.start else None,
             "n_steps": ns.steps, "seed": ns.seed, "n_paths": ns.paths}
    block = {"start": (0.0, 0.0), "n_steps": 1000, "seed": 0, "n_paths": 1, **cfg_block,
             **{k: v for k, v in flags.items() if v is not None}, "model": model_to_dict(model)}
    config = config_from_dict(block)
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
    steps = np.arange(0, n + 1, min(thin, n))  # a stride past n keeps only 0 and n
    if steps[-1] != n:
        steps = np.append(steps, n)  # the terminal state is always kept
    # The step,t columns are the same for every path, so they are formatted
    # once; NUL marks where each path's path_id goes.
    body = b"".join(b"\0%d,%s,%%s,%%s\n" % row for row in zip(
        steps.tolist(), _format_g17(config.time_grid()[steps]).tolist()))
    per_block = max(1, _G17_BLOCK // (2 * len(steps)))  # paths formatted at a time

    def path_blocks():
        paths = batch.paths
        for lo in range(0, len(paths), per_block):
            block = np.stack([path.states[steps] for path in paths[lo:lo + per_block]])
            for pid, xs in enumerate(_format_g17(block.reshape(len(block), -1)).tolist(), lo):
                yield body.replace(b"\0", b"%d," % pid) % tuple(xs)

    _write_csv(out_dir / "paths.csv", "path_id,step,t,x1,x2", path_blocks())

    logw = batch.log_weights
    logw_text = _format_g17(logw).tolist() if logw is not None else [b""] * batch.n_paths
    rows = (b"%d,%s,%s,%s,%d,%s\n" % (pid, *x, _offset_text(k, tie), tie, lw)
            for pid, (x, k, tie, lw) in enumerate(zip(
                _format_g17(batch.terminal_points).tolist(),
                batch.limiting_lattice_points.tolist(), batch.unresolved.tolist(), logw_text)))
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

    rows = (b"%d,%s,%s,%d\n" % (pid, _offset_text(ka, tie_a), _offset_text(kb, tie_b), agree)
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
    rows = (b"%s,%s,%s,%s\n" % tuple(row)
            for row in _format_g17(np.concatenate([points, vectors], axis=1)).tolist())
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
    rows = (b"%d,%s\n" % row for row in enumerate(_format_g17(batch.log_weights).tolist()))
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
