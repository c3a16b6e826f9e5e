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
The floats are formatted in numpy, a block at a time, by one core,
``_g17_rows``: for zero and 1e-4 <= |v| < 1e16 it computes the correctly
rounded 17-digit decimal exactly, with Dekker's error-free product, and
builds its text in four uint64 words from tables of digits and of masks;
every other value goes through "%.17g" itself.  ``_format_g17`` shifts each
text to the start of an S24 item.  paths.csv is laid out in numpy too, a few
paths at a time (``_path_blocks``): each block's states are gathered from the
batch's ``states`` array with one ``np.take``, its rows go into one uint8
frame of NUL-padded fields, and dropping the NULs leaves its bytes.  The other
files' rows are bytes "%" templates with the formatted floats as "%s" fields.

``simulate`` runs on two CPUs when paths.csv has ``_MIN_SPLIT_BLOCKS`` blocks
or more, split at its middle block: a forked child steps paths [split, n)
(``engine.simulate_batch`` with a ``rows`` range) and formats their blocks of
paths.csv into an anonymous file in the output directory, while this process
steps and formats paths [0, split).  The child sends back only its rows of
the endpoint arrays and its paths.csv bytes, which are copied in behind this
process's, so every file is the same as from one process.  A smaller
paths.csv leaves the split to the batch itself, which forks when it is large
enough, its child sending back the raw bytes of its rows of the batch's
arrays.  Both go through one fork
helper, ``engine._forked``, which alone decides whether a child can run and
runs at most one at a time, so this module knows nothing of CPUs or threads;
``simulate --workers`` and ``compare --workers/--truncation`` are accepted and
have no effect.  Each CSV file is written under a temporary name beside it
and renamed over it after its last row (``_write_csv``), so a failed write
leaves an earlier run's file whole.

A bad flag, like any other bad input, ends in one ``error:`` line on stderr
and exit status 2: the parser raises ``ValueError`` rather than printing its
usage and exiting (``_Parser``).

``main`` freezes the garbage collector's heap once per process (``gc.freeze``),
which takes about 50 ms off every command's exit, and keeps the forked
children's collections off the pages they share with their parent.  The
process still exits the normal way, so atexit handlers run and the standard
streams are flushed; only a forked child leaves through ``os._exit``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .analysis import agreement_rate, drift_field
from .drift import VARIANTS
from .engine import (
    SimConfig,
    _forked,
    _json_object,
    _read_rows,
    config_from_dict,
    config_to_dict,
    model_class,
    model_from_dict,
    model_to_dict,
    simulate_batch,
)

__all__ = ["main"]


_COUNT_WORDS = {2: "two", 4: "four"}


def _floats(text: str, flag: str, form: str = "x,y") -> tuple[float, ...]:
    """The numbers of ``flag``'s value ``text``, comma-separated as ``form``."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise ValueError(f"{flag} expects {form!r}; got {text!r}")
    try:
        return tuple(map(float, parts))
    except ValueError:
        count = _COUNT_WORDS[len(parts)]
        raise ValueError(f"{flag} expects {count} numbers; got {text!r}") from None


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and then ``rows``, blocks of bytes (``bytes`` or uint8
    arrays) that each end in a newline, to ``path``.

    The bytes go to a temporary file beside ``path``, which replaces it only
    after the last row, so a write that fails leaves any earlier file there
    as it was, and no temporary file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.writelines(rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
# Zero is D = 0 with E = 0, printed "0" or "-0".  Every other value
# (|v| < 1e-4, |v| >= 1e16, nan, inf) takes "%.17g" itself.
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

# A text is built in a row of four little-endian uint64 words, 32 bytes:
# three NULs, "0000" and d0 (_HEAD | d0 << 56), then d1..d8 and d9..d16, each
# word two 4-digit groups of D from _QUAD_TEXT.  Its class (E, sign, digit
# count) picks masks and fixed bytes: the integer part stays in place
# (_WHOLE), the fraction moves one byte right (_FRAC, then a shift across the
# words) to open the point's slot, and _FIXED adds "." and "-".  For E < 0
# the integer part is one of the "0000" bytes and the fraction starts among
# them, which gives the leading zeros.  The text lies in bytes 2-24, NUL
# before and after it.  Row _FALLBACK is all NUL, and "%.17g" fills bytes 2-25.
_HEAD = 0x3030303030000000
# _QUAD_TEXT[q] is the 4 ASCII digits of q < 10 000, the first in the low byte,
# from the 2 digits of each pair.
_PAIRS = np.array([48 + p // 10 | (48 + p % 10) << 8 for p in range(100)], dtype=np.uint64)
_QUAD_TEXT = (_PAIRS[:, None] | _PAIRS << 16).ravel()


def _layouts():
    """The (681, 4) uint64 tables _WHOLE, _FRAC and _FIXED, a row per class
    ((E - _E_MIN) * 2 + sign) * 17 + digits - 1 and then _FALLBACK's, and the
    right shift in bits that starts each row's text at byte 0."""
    # Float64, as the step loop's arithmetic: integer comparisons would page
    # in more of numpy's code before the batch's peak memory.
    e = np.repeat(np.arange(_E_MIN, _E_MAX + 1.0), 34)[:, None]
    neg = np.tile(np.repeat([0.0, 1.0], 17), _E_MAX + 1 - _E_MIN)[:, None]
    sig = np.tile(np.arange(1.0, 18.0), 2 * (_E_MAX + 1 - _E_MIN))[:, None]
    b = np.arange(32.0)
    first = 7 + np.minimum(e, 0)  # the integer part's first byte
    # Each row's bytes are 1 where it keeps the integer part, the fraction,
    # the point or the sign, else 0.
    flags = [np.append(m, np.zeros((1, 32), dtype=bool), axis=0).view(np.uint64) for m in (
        (b >= first) & (b <= 7 + e), (b >= 8 + e) & (b <= 6 + sig),
        (b == 8 + e) & (sig > e + 1), (b == first - 1) & (neg > 0))]
    return (flags[0] * 255, flags[1] * 255, flags[2] * ord(".") | flags[3] * ord("-"),
            np.append(8 * (first - neg), 16).astype(np.uint64))


_WHOLE, _FRAC, _FIXED, _SHIFT = _layouts()
_FALLBACK = len(_SHIFT) - 1


def _format_g17(values) -> np.ndarray:
    """``b"%.17g" % v`` for every double ``v`` of ``values``, as an S24 array
    of the same shape (an item drops its NUL padding)."""
    arr = np.asarray(values, dtype=float)
    flat = arr.ravel()
    out = np.empty(flat.size, dtype="S24")
    words = out.view(np.uint64).reshape(-1, 3)
    rows = np.empty((min(flat.size, _G17_BLOCK), 4), dtype=np.uint64)
    for lo in range(0, flat.size, _G17_BLOCK):
        x = flat[lo:lo + _G17_BLOCK]
        text = rows[:x.size]
        right = np.take(_SHIFT, _g17_rows(x, text))[:, None]
        np.bitwise_or(text[:, :3] >> right, text[:, 1:] << 64 - right, out=words[lo:lo + x.size])
    return out.reshape(arr.shape)


def _round_scaled(a, k):
    """round(a 10^k) half-even, for a 10^k in [1e16, 1e17]: Dekker's product
    gives it as hi + lo exactly, and hi is an even integer."""
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17_rows(x, rows) -> np.ndarray:
    """Write the "%.17g" bytes of each value of ``x`` into its row of ``rows``,
    an (x.size, 4) uint64 array, NUL around them; return each value's class
    (``_FALLBACK`` for a value that "%.17g" formats itself)."""
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e16))
    a[slow] = 1.0  # any fast-path value
    e = np.floor(np.log10(a)).astype(np.intp)  # E, or one off near a power of ten
    e -= a < _POW10_CEIL[e + _CEIL_OFFSET]
    e += a >= _POW10_CEIL[e + _CEIL_OFFSET + 1]
    d = _round_scaled(a, 16 - e)
    d[slow] = 0  # zero's D; the fallback row masks out every other slow value
    # D = d0 10^16 + high 10^8 + low, and high and low are two 4-digit groups each.
    lead = d // 10**16
    d -= lead * 10**16
    halves = np.empty((2, x.size), dtype=np.intp)
    halves[0] = d // 10**8
    halves[1] = d - halves[0] * 10**8
    groups = np.empty((2, 2, x.size), dtype=np.intp)
    groups[0] = halves // 10**4
    groups[1] = halves - groups[0] * 10**4
    # mode="clip" spares take a buffered bounds check; every index is in range.
    text = np.take(_QUAD_TEXT, groups, mode="clip")
    words = text[0] | text[1] << 32
    rows[:, 0] = lead << 56 | _HEAD
    rows[:, 1:3] = words.T
    # D's last nonzero digit is d(i + 1) for the highest nonzero byte i of its
    # 16 lower digits XOR "0" (d0 if none): the double 2^64 z2 + z1 + 1/2 of
    # the two words has binary exponent 8 i + 0..3, or -1, so (exponent >> 3)
    # + 1 is that digit's index, the digit count less one.
    z = (words ^ 0x3030303030303030).astype(float)
    z[1] = z[1] * 2.0**64 + z[0] + 0.5
    key = (e - _E_MIN) * 34 + np.signbit(x) * 17 + ((z[1].view(np.int64) - (1015 << 52)) >> 55)
    slow &= x != 0
    key[slow] = _FALLBACK
    frac = np.take(_FRAC, key, axis=0, mode="clip")
    frac &= rows
    rows &= np.take(_WHOLE, key, axis=0, mode="clip")
    rows |= np.take(_FIXED, key, axis=0, mode="clip")
    rows |= frac << 8
    rows.reshape(-1)[1:] |= frac.reshape(-1)[:-1] >> 56  # the byte each word passes on
    texts = rows.view(np.uint8)[:, 2:26].view("S24")[:, 0]
    for i in np.flatnonzero(slow).tolist():
        texts[i] = b"%.17g" % x[i]
    return key


def _block_paths(n_states: int) -> int:
    """Paths per block of ``_path_blocks``: about ``_G17_BLOCK`` floats, at least one path."""
    return max(1, _G17_BLOCK // (2 * n_states))


def _path_blocks(states, steps, times, first=0):
    """The rows of paths.csv, the states ``steps`` (at ``times``) of each path of
    ``states``, a block of paths (``_block_paths``) at a time; ids start at ``first``.

    A block's states are gathered with one ``np.take``, and its rows are laid
    out in one reused uint8 frame, a row per state: the path id and ",", the
    "step,t," text (the same for every path, so formatted once), x1's 24
    "%.17g" bytes, ",", x2's 24 bytes and a newline, each field padded with
    NUL to its widest value or around its text.  Dropping the NULs in one pass
    leaves the block's bytes.
    """
    stamps = np.array([b"%d,%s," % row for row in zip(steps.tolist(), _format_g17(times).tolist())])
    width = len(b"%d," % (first + len(states) - 1))  # of the widest path id and its ","
    per_block = _block_paths(len(steps))
    frame = np.zeros((per_block, len(steps), width + stamps.itemsize + 50), dtype=np.uint8)
    frame[:, :, width:-50] = stamps.view(np.uint8).reshape(len(steps), -1)
    frame[:, :, -26], frame[:, :, -1] = ord(","), ord("\n")
    xs = np.empty((per_block, len(steps), 2))
    rows = np.empty((min(xs.size, _G17_BLOCK), 4), dtype=np.uint64)
    fields = rows.view(np.uint8)[:, 2:26].reshape(-1, 2, 24)  # x1 and x2 of a state
    for lo in range(0, len(states), per_block):
        block = states[lo:lo + per_block]
        f, x = frame[:len(block)], xs[:len(block)]
        ids = np.array([b"%d," % pid for pid in range(first + lo, first + lo + len(block))],
                       dtype=f"S{width}")
        f[:, :, :width] = ids.view(np.uint8).reshape(-1, 1, width)
        np.take(block, steps, axis=1, out=x, mode="clip")
        flat, lines = x.reshape(-1), f.reshape(-1, f.shape[-1])
        for i in range(0, flat.size, _G17_BLOCK):  # more than one only for a long path
            part = flat[i:i + _G17_BLOCK]
            _g17_rows(part, rows[:part.size])
            n = part.size // 2  # states
            lines[i // 2:i // 2 + n, -50:-26] = fields[:n, 0]
            lines[i // 2:i // 2 + n, -25:-1] = fields[:n, 1]
        yield f[f != 0]


# The fork, the child's exit and its copy-on-write faults add about 9 ms (a
# 65 MB process on a 2-vCPU Xeon), and two processes each format more slowly
# than one alone, so the split pays from about 30 blocks: of 501 states, 25
# blocks took 25.5 ms serial and 29.1 ms split, 40 blocks 44.6 and 38.3 ms.
_MIN_SPLIT_BLOCKS = 32
_COPY_BYTES = 1 << 16  # bytes per read of the child's half: less than a block's frame


def _endpoint_arrays(batch) -> dict:
    """The arrays of ``batch`` that endpoints.csv is written from, by field name,
    in the order a forked half of ``simulate`` sends back its rows of them."""
    names = ("terminal_points", "limiting_lattice_points", "unresolved", "log_weights")
    return {name: getattr(batch, name) for name in names if getattr(batch, name) is not None}


# The namespace attribute (flag --<attr>) that sets each model field.  Unset flags leave
# a field to the config file, then to the defaults below or the model's own.
_FIELD_FLAGS = {"sigma": "sigma", "horizon": "T", "endpoint": "endpoint", "target": "target"}
_PAIR_FIELDS = ("endpoint", "target")


def _merge_model(variant: str | None, cfg_model: dict, ns: argparse.Namespace):
    """Model description from flags, with a config file filling the gaps."""
    cfg_model = _json_object(cfg_model, "a model block")
    variant = variant or cfg_model.get("variant")
    if variant is None:
        raise ValueError("a model is required (--model or --config)")
    base = dict(cfg_model) if cfg_model.get("variant") == variant else {}
    base.update(variant=variant, sigma=cfg_model.get("sigma", 1.0),
                horizon=cfg_model.get("horizon", 1.0))
    for name in [f.name for f in fields(model_class(variant)) if f.name in _FIELD_FLAGS]:
        value = getattr(ns, _FIELD_FLAGS[name], None)
        if value is not None:
            base[name] = list(_floats(value, f"--{name}")) if name in _PAIR_FIELDS else value
        elif name in _PAIR_FIELDS and name not in base:
            raise ValueError(f"--{name} x,y is required for {variant}")
    return model_from_dict(base)


def _load_config_file(path: str) -> tuple[dict, dict]:
    """Read a config file (bare config block or a full manifest)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object; got {type(data).__name__}")
    if "config" in data:
        return (_json_object(data["config"], "a config block"),
                _json_object(data.get("output", {}), "an output block"))
    return data, {}


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg_block, out_block = _load_config_file(ns.config) if ns.config else ({}, {})
    model = _merge_model(ns.model, cfg_block.get("model", {}), ns)
    # Flags over the file's block over the defaults; the one reader rejects unknown keys.
    flags = {"start": _floats(ns.start, "--start") if ns.start else None,
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
    n_steps, n = config.n_steps, config.n_paths
    steps = np.arange(0, n_steps + 1, min(thin, n_steps))  # a stride past n_steps keeps its ends
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)  # the terminal state is always kept
    times = config.time_grid()[steps]
    # The split, at the middle block of paths.csv; 0 runs the batch whole here.
    per_block = _block_paths(len(steps))
    n_blocks = -(-n // per_block)
    split = n_blocks // 2 * per_block if n_blocks >= _MIN_SPLIT_BLOCKS else 0
    what = f"simulating and formatting paths {split} to {n - 1}"

    def run_half(out):  # the child's work: its endpoint rows, then its paths.csv bytes
        half = simulate_batch(config, keep_paths=True, weight_cutoff=cutoff, rows=range(split, n))
        out.writelines(_endpoint_arrays(half).values())
        out.writelines(_path_blocks(half.states, steps, times, split))

    with _forked(run_half if split else None, what, out_dir) as join:
        if join is None:
            split = n
        batch = simulate_batch(config, keep_paths=True, weight_cutoff=cutoff, rows=range(split))
        # Every path's endpoint columns: this process's rows, then the child's.
        ends = {name: np.concatenate([a, np.empty((n - split, *a.shape[1:]), a.dtype)])
                for name, a in _endpoint_arrays(batch).items()}

        def paths_rows():
            yield from _path_blocks(batch.states, steps, times)
            if join:
                child = _read_rows(join(), [a[split:] for a in ends.values()], what, rest=True)
                yield from iter(lambda: child.read(_COPY_BYTES), b"")

        _write_csv(out_dir / "paths.csv", "path_id,step,t,x1,x2", paths_rows())
    batch = replace(batch, states=None, **ends)

    logw = batch.log_weights
    logw_text = _format_g17(logw).tolist() if logw is not None else [b""] * n
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
    print(f"wrote {n} paths to {out_dir}")
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    start = _floats(ns.start, "--start")
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
    rect = _floats(ns.rect, "--rect", "x1min,x1max,x2min,x2max")
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
    # Batches pick their own split and the true bridge sums every lift, so --workers
    # and --truncation do nothing; they stay where the benchmark's command lines pass them.
    for name in names:
        p.add_argument(f"--{name}", type=int, default=None,
                       help="has no effect; accepted for older command lines")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``ValueError`` with argparse's
    message, for ``main`` to print as its one error line; its subcommand
    parsers are of this class too.  ``--help`` and ``--version`` still exit 0."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--thin", type=int, default=None,
                   help="write every m-th state to paths.csv (terminal state always kept)")
    p.add_argument("--cutoff", type=float, default=None,
                   help="grid time S in (0,T): also emit Girsanov log weights on [0,S]")
    p.add_argument("--config", default=None,
                   help="JSON config (a manifest 'config' block or a full manifest)")
    p.add_argument("--out", default=".", help="output directory")
    _add_ignored_flags(p, "workers")
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
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("weights", help="recompute a run from its manifest and emit log weights")
    p.add_argument("--manifest", required=True, help="manifest.json of a finished run")
    p.add_argument("--cutoff", type=float, required=True,
                   help="grid time S in (0,T) the weights integrate to")
    p.add_argument("--out", default=None, help="output directory (default: manifest's)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--criterion", type=int, action="append", default=None,
                   help="criterion number to run (repeatable; default all)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    """Run one command with the arguments ``argv`` (default ``sys.argv[1:]``);
    return its exit status.

    The first call in a process moves every object the collector tracks, by
    then mostly the import's (about 40 000, most of them scipy.special's), to
    its permanent generation, so neither the run's collections nor the
    interpreter's finalisation at exit walk them.  Later calls
    (tests and criterion 8 call ``main`` in process) freeze nothing more,
    so the garbage of earlier runs stays collectable.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        ns = _build_parser().parse_args(argv)
        return ns.func(ns)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: e.g. a huge --grid
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
