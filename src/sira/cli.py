"""Command-line interface.

Subcommands: auction (one SIRA round), reserve (reserve thresholding),
repeat (repeated SIRA rounds), deviation (Nash deviation sweep), sweep
(mechanism comparison across clearing prices), validate-dist
(premium-value distribution check), crosscheck (closed-form bids
against quadrature). Each is declared once, in the table _COMMANDS: its
help, its options and its handler.

Every output file is self-describing: it carries the tool version and
the echoed run configuration, including the seed, and contains no
timestamps, so rerunning the same specification writes byte-identical
files. CSV cells, the summary lines' values included, are the bytes of C
printf conversions (%.9g for floats, %d for integers and bools) and str
for text. JSON is compact (sorted keys, no whitespace; read it through
`python -m json.tool`), and a JSON float is the text json.dumps writes,
the shortest repr that reads back as the same double (float.__repr__).
JSON writes undefined statistics (nan or inf, of any float type) as
null, and CSV writes them as nan, inf or -inf. CSV rows and every 1-D
JSON array are written in blocks, so the text held in memory stays
bounded. In a block, numpy digit arithmetic builds CSV integers and
bools and, in both formats, ±0 and nearly every float with
1e-4 <= |x| < 10 (see _float_cells and _json_floats for why the digits
are exact); JSON bools are looked up in a table of their two texts.
Every other float is formatted one at a time into its row of the block,
which widens for a long repr. json.dumps sees only plain Python values:
integer and text blocks, and single values (numpy ones as tolist()).
Only sweep reads --workers, and it never changes results; it only
parallelizes the grid points. Options may also be supplied through
--config FILE (JSON object keyed by option name); explicit flags win
over the file, which wins over defaults. A config file holds only the
options of the config echo: --out, --format and --workers, like any
unknown field, are rejected. An artifact's config echo is itself a valid
--config file. Each option's name is the keyword under which the
subcommand's library call takes it.

An experiment's JSON results are its CSV columns, one array per column;
sweep adds its paired participation uplift and that uplift's standard
error. The per-agent subcommands keep a nested layout.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure, 4 could not produce the artifact (an I/O error, or out of
memory). An artifact is written beside its path and moved onto it after
its last byte, so a run that fails leaves the path as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__, mechanism
from .errors import ConfigError, DomainError, NumericalError
from .mechanism import AuctionConfig, AuctionReport, PairingMode
from .experiments import (
    closed_form_vs_quadrature,
    deviation_sweep,
    threshold_sweep,
    validate_product_distribution,
)
from .seeding import check_count, fresh_seed
from .value_model import ValueFamily

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "SIRA_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Option converters (applied to CLI strings and config-file values alike)


def _to_int(value) -> int:
    # Config-file numbers arrive as floats; only integral ones are integers.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"expected an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {value!r}") from None
    return out


def _to_float(value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}") from None


def _to_float_list(value) -> list[float]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [_to_float(p) for p in parts]
    if isinstance(value, (list, tuple)):
        return [_to_float(v) for v in value]
    raise ConfigError(f"expected a comma-separated list of numbers, got {value!r}")


def _to_grid(value) -> list[float]:
    """Grid syntax: either 'start:stop:count' or a comma list of points."""
    if isinstance(value, str) and ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must look like start:stop:count, got {value!r}")
        start, stop = _to_float(parts[0]), _to_float(parts[1])
        count = _to_int(parts[2])
        try:
            check_count("grid count", count, 2)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        return [float(x) for x in np.linspace(start, stop, count)]
    return _to_float_list(value)


# ---------------------------------------------------------------------------
# Options


@dataclass(frozen=True)
class _Opt:
    """One option. kind turns a CLI string or config-file value into what
    the library takes: it is a converter, or an Enum whose values are the
    option's choices. default is used as it stands."""

    dest: str
    kind: Callable[[Any], Any]
    default: Any
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")

    @property
    def choices(self) -> list[str] | None:
        """An Enum kind's values in member order; None for a converter."""
        return [m.value for m in self.kind] if isinstance(self.kind, EnumMeta) else None

    def convert(self, value):
        """A CLI string or config-file value as the type the library takes."""
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"expected one of {self.choices}, got {value!r}")
        return self.kind(value)


_SEED = _Opt("seed", _to_int, None, "root seed (default: drawn from OS entropy)")
_FAMILY = _Opt("family", ValueFamily, ValueFamily.UNIFORM, "total-value family")
_P_EPS = _Opt("p_eps", _to_float, 0.5, "clearing price of the mandated safety level")
_GAMMA = _Opt("gamma", _to_float, 1.0, "safety-cost exponent")
_PAIRING = _Opt("pairing", PairingMode, PairingMode.INDEPENDENT_OPPONENT, "premium pairing rule")
_ENGINE_OPTS = [_Opt("n_agents", _to_int, 100_000, "population size"), _P_EPS, _FAMILY, _GAMMA, _SEED]


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run: semantic parameters plus output plumbing."""

    subcommand: str
    params: dict[str, Any]
    out_path: Path
    fmt: str
    workers: int

    @property
    def config_echo(self) -> dict[str, Any]:
        """The params as JSON values (an Enum as its value), after the subcommand."""
        params = {k: v.value if isinstance(v, Enum) else v for k, v in self.params.items()}
        return {"subcommand": self.subcommand, **params}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of exiting the process."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sira",
        description="Simulators and numerics for reserve thresholding and SIRA.",
    )
    parser.add_argument(
        "--version", action="version", version=f"sira {__version__}"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        for opt in command.options:
            sub.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help,
                             choices=opt.choices)
        sub.add_argument("--config", default=None, help="JSON file with option defaults")
        sub.add_argument("--out", default=None, help="output file path")
        sub.add_argument(
            "--format", choices=["csv", "json"], default="csv", dest="fmt",
            help="output format (default csv)",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="worker threads for sweep grid points; only sweep reads it, "
                 "and it never changes results",
        )
    return parser


def _load_config_file(path: Path, subcommand: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    allowed = {opt.dest for opt in _COMMANDS[subcommand].options}
    for key in data:
        if key == "subcommand":
            if data[key] != subcommand:
                raise ConfigError(
                    f"config file is for subcommand {data[key]!r}, not {subcommand!r}"
                )
            continue
        if key not in allowed:
            raise ConfigError(f"unknown config field {key!r} for {subcommand!r}")
    return {k: v for k, v in data.items() if k != "subcommand"}


def parse_run_spec(argv: list[str] | None = None) -> RunSpec:
    """Parse argv (and an optional config file) into a resolved RunSpec."""
    ns = _build_parser().parse_args(argv)
    subcommand = ns.subcommand
    file_values = (
        _load_config_file(ns.config, subcommand) if ns.config is not None else {}
    )
    params: dict[str, Any] = {}
    for opt in _COMMANDS[subcommand].options:
        raw = getattr(ns, opt.dest)
        if raw is None and opt.dest in file_values:
            raw = file_values[opt.dest]
        if raw is None:
            params[opt.dest] = opt.default
            continue
        try:
            params[opt.dest] = opt.convert(raw)
        except ConfigError as exc:
            raise ConfigError(f"{opt.flag}: {exc}") from None
    if "seed" in params and params["seed"] is None:
        params["seed"] = fresh_seed()

    fmt = ns.fmt
    if ns.out is not None:
        out_path = Path(ns.out)
    else:
        out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
        out_path = out_dir / f"{subcommand}.{fmt}"
    workers = int(ns.workers)
    if workers < 1:
        raise ConfigError(f"--workers: expected a positive integer, got {workers}")
    return RunSpec(subcommand, params, out_path, fmt, workers)


# ---------------------------------------------------------------------------
# Output writer

# CSV rows formatted and written at a time; bounds the text held in
# memory, and keeps a block's byte matrix, one slot per column, in L2.
_BLOCK_ROWS = 1 << 12
# Elements of a 1-D JSON array formatted and written at a time. A JSON
# block is one column, so it can hold more values than a CSV block and
# spread numpy's per-call cost over them; 1 << 15 was no faster.
_JSON_BLOCK = 1 << 14


def _quad_table() -> np.ndarray:
    """The digit groups 0000 to 9999 as 4-byte words of ASCII digits, in
    four variants: all digits, then trailing zeros NUL, leading zeros NUL,
    and leading zeros NUL but 0 kept as "0"."""
    values = np.arange(10_000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], np.uint16)
    digits = (values // places % 10 + ord("0")).astype(np.uint8)
    stripped = [False, values % (10 * places) == 0, values < places,
                (values < places) & (places > 1)]
    return np.concatenate([np.where(s, np.uint8(0), digits).view(np.uint32).ravel()
                           for s in stripped])


# The variants' offsets into _QUADS; all digits are at 0.
_TRAIL, _LEAD, _LEAD_KEEP0 = 10_000, 20_000, 30_000
_QUADS = _quad_table()
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
# JSON array elements false and true, each with its comma, as 8-byte
# words indexed by a bool's byte.
_JSON_BOOLS = np.frombuffer(b",false\0\0,true\0\0\0", np.uint64)


def _float_head(sign: str, k: int, d0: str, rest_zero: bool) -> str:
    """The head of a fast float cell with exponent X = k - 4: its sign,
    the "0.000" prefix or the point after d0, and d0, right-aligned in 8
    bytes. Only ±0 has d0 = 0."""
    if d0 == "0":
        body = "0"
    elif k == 4:
        body = d0 if rest_zero else d0 + "."
    else:
        body = "0." + "0" * (3 - k) + d0
    return (sign + body).rjust(8, "\0")


# Heads of fast float cells as 8-byte words, indexed by
# 100·sign + 20·(X + 4) + 2·d0 + (d1...d8 all zero). A fast cell, ±0 or
# d0.d1...d8 · 10**X for X = -4..0, is its head followed by the groups
# d1..d4 and d5..d8 with trailing zeros stripped.
_HEADS = np.frombuffer("".join(
    _float_head(sign, k, d0, rest_zero)
    for sign in ("", "-") for k in range(5) for d0 in "0123456789"
    for rest_zero in (False, True)
).encode(), np.uint64)
_SCALE = np.array([1e12, 1e11, 1e10, 1e9, 1e8])  # 10**(8 - X), exact


def _slots(texts: list[str]) -> np.ndarray:
    """Per-cell texts as rows of NUL-padded bytes."""
    data = [t.encode() for t in texts]
    if any(b"\0" in d for d in data):
        raise ValueError("a CSV cell cannot hold a NUL character")
    cells = np.array(data, dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


def _patch(cells: np.ndarray, rows: np.ndarray, texts: list[str]) -> np.ndarray:
    """cells with each of rows replaced by its text, NUL-padded. The rows
    widen to the longest text, so no encoder needs a fallback."""
    slots = _slots(texts)
    width = slots.shape[1]
    if width > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
    cells[rows, :width] = slots
    cells[rows, width:] = 0
    return cells


def _decade(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| as float64, nan and |x| >= 10 as 10 (a slow cell), and X + 4 for
    X = floor(log10 |x|) in -4..0. X is exact: the doubles nearest 1e-3,
    1e-2, 0.1 and 1, with which |x| is compared, each lie above their power
    of ten with no double in between."""
    a = np.abs(x, dtype=np.float64)
    np.fmin(a, 10.0, out=a)
    k = (a >= 1e-3).view(np.uint8) + (a >= 1e-2).view(np.uint8)
    k += a >= 0.1
    k += a >= 1.0
    return a, k


def _float_cells(x: np.ndarray) -> np.ndarray:
    """%.9g of float64 x as rows of 16 NUL-padded bytes.

    Digit arithmetic writes ±0 and 1e-4 <= |x| < 10, the bulk of every
    artifact; every other cell, and a rounding tie, goes through % and
    ``_patch``. Why the digits are exact: X comes from ``_decade``. The
    9-digit significand of |x| is y = |x|·10**(8 - X) in [1e8, 1e9),
    rounded. The power of ten is exact, so fl(y) is y correctly rounded to
    a double. That rounding is monotone, and every half-integer below
    2**30 is a double, so fl(y) lies on the same side of each rounding tie
    as y, and rint(fl(y)) is the rounded significand that %.9g prints,
    unless fl(y) is a tie itself. Ties, cells below 1e-4 (fl(y) < 1e8) and
    significands that round up to 1e9 go through %.
    """
    a, k = _decade(x)
    y = a * np.take(_SCALE, k)
    r = np.rint(y)
    fast = (y >= 1e8) & (r < 1e9) & (np.abs(y - r) < 0.5) | (a == 0)
    significand = r.astype(np.uint32)
    high = significand // 10_000
    low = significand - high * 10_000
    d0 = high // 10_000
    middle = high - d0 * 10_000
    low_zero = low == 0
    head = 20 * k + 100 * np.signbit(x) + 2 * d0 + (low_zero & (middle == 0))
    cells = np.empty((x.size, 4), np.uint32)
    # A slow cell's d0 may be 10; its head is clipped, then overwritten.
    cells.view(np.uint64)[:, 0] = np.take(_HEADS, head, mode="clip")
    cells[:, 2] = np.take(_QUADS, middle + _TRAIL * low_zero)
    cells[:, 3] = np.take(_QUADS, low + _TRAIL)
    slow = np.flatnonzero(~fast)
    return _patch(cells.view(np.uint8), slow, ["%.9g" % v for v in x[slow].tolist()])


def _int_cells(v: np.ndarray) -> np.ndarray:
    """%d of an integer or bool column as rows of NUL-padded bytes: a
    minus sign if any cell needs one, then four-digit groups."""
    magnitude = v.astype(np.uint64)
    negative = np.flatnonzero(v < 0)
    magnitude[negative] = -magnitude[negative]
    n_groups = (len(str(magnitude.max())) + 3) // 4
    cells = np.zeros((v.size, n_groups + (negative.size > 0)), np.uint32)
    cells[negative, 0] = _MINUS
    for i in range(1, n_groups):
        rest = magnitude // 10_000
        # Leading zeros are stripped where no higher group is left.
        strip = (rest == 0).astype(rest.dtype) * (_LEAD_KEEP0 if i == 1 else _LEAD)
        cells[:, -i] = np.take(_QUADS, magnitude - rest * 10_000 + strip)
        magnitude = rest
    last = _LEAD if n_groups > 1 else _LEAD_KEEP0
    cells[:, -n_groups] = np.take(_QUADS, magnitude + last)
    return cells.view(np.uint8)


def _block_cells(block: list[np.ndarray]) -> list[np.ndarray]:
    """The cells of one block of columns, each column as rows of
    NUL-padded bytes. Float columns are encoded together, so that each
    numpy call covers all of them."""
    floats = [column for column in block if column.dtype.kind == "f"]
    if floats:
        joined = np.concatenate(floats, dtype=np.float64)
        float_cells = iter(_float_cells(joined).reshape(len(floats), -1, 16))
    cells = []
    for column in block:
        if column.dtype.kind == "f":
            cells.append(next(float_cells))
        elif column.dtype.kind in "biu":
            cells.append(_int_cells(column))
        else:
            cells.append(_slots([str(v) for v in column.tolist()]))
    return cells


def _csv_rows(columns: dict[str, np.ndarray]):
    """CSV data rows as text, one string per block of ``_BLOCK_ROWS`` rows.

    The text is each cell's printf conversion, byte for byte: ``%.9g`` for
    floats, ``%d`` for integers and bools (1/0), and ``str`` for any other
    kind. A block is built as one byte matrix: each cell sits in a
    fixed-width slot, padded with NUL, and is followed by its comma or
    newline. The block's text is the matrix without its NULs; a cell
    never holds NUL. Digit arithmetic fills the slots of integers, bools,
    ±0 and floats with 1e-4 <= |x| < 10 (``_int_cells``,
    ``_float_cells``), and every other slot is formatted one cell at a
    time.
    """
    values = list(columns.values())
    n_rows = len(values[0])
    for start in range(0, n_rows, _BLOCK_ROWS):
        cells = _block_cells([column[start : start + _BLOCK_ROWS] for column in values])
        block = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
        at = 0
        for c in cells:
            # Copied as one fixed-size item per row, not byte by byte.
            slot = f"V{c.shape[1]}"
            block[:, at : at + c.shape[1]].view(slot)[:, 0] = c.view(slot)[:, 0]
            at += c.shape[1] + 1
            block[:, at - 1] = ord(",")
        block[:, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0").decode()


# 10**(16 - X) for X = -4..0, exact: |x| times it is a 17-digit significand.
_POW17 = np.array([1e20, 1e19, 1e18, 1e17, 1e16])


def _json_floats(x: np.ndarray) -> np.ndarray:
    """A 1-D float array as JSON array elements, one row of NUL-padded
    bytes per value, each starting with its comma: float.__repr__ of the
    value, or null for nan and inf, the text that json.dumps writes.

    A 24-byte row holds the comma, a head of ``_HEADS`` (sign, "0.000"
    prefix or point, and d0) and four groups of ``_QUADS`` (d1...d16,
    trailing zeros stripped). Digit arithmetic writes ±0 and
    1e-4 <= |x| < 10; every other value, and any value near one of the
    decisions below, goes through float.__repr__ and ``_patch``, which
    widens the rows for a 24-character repr.

    Why the digits are exact. X comes from ``_decade`` (the double nearest
    1e-4 also lies above 1e-4), so y = |x|·10**(16 - X) lies in
    [1e16, 1e17). The power of ten is a double, and Dekker's product, with
    operands split at 2**27 + 1, gives y exactly as hi + lo; hence
    y = g + f with g the int64 hi + rint(lo) and f = lo - rint(lo) in
    [-1/2, 1/2], both exact. The reals that round to x lie within half a
    gap of it: in units of y, h = 2**(E - 53)·10**(16 - X) for binary
    exponent E, in (0.55, 11.1]; below a power of two the gap is half as
    wide, but each power of two in range has at most 10 digits and is its
    own repr, at distance 0. float.__repr__ writes the fewest digits that
    round to x, the nearest to x if several do. That is the multiple of
    100 nearest y if within h (at most one is, since 2h < 100), else the
    nearest multiple of 10 if within h, else g, which is within h. The
    offset of y from the multiple of 100 below g, and its distances from
    the candidates, are computed with an error below 1e-13; a value whose
    distance lies within 1e-9 of h, or of a tie (5 from a multiple of 10,
    1/2 from an integer), goes through float.__repr__, so every decision
    made here is exact. 0.0 and -0.0 get the head "0" and the group ".0".
    """
    a, k = _decade(x)
    s = np.take(_POW17, k)
    split = 134217729.0  # 2**27 + 1
    s_high = _POW17 * split
    s_high -= s_high - _POW17
    s_high = np.take(s_high, k)
    s_low = s - s_high
    a_high = a * split
    a_low = a_high - a
    a_high -= a_low
    np.subtract(a, a_high, out=a_low)
    hi = a * s
    lo = a_high * s_high
    lo -= hi
    term = a_high * s_low
    lo += term
    lo += np.multiply(a_low, s_high, out=term)
    lo += np.multiply(a_low, s_low, out=term)
    units = np.rint(lo)
    lo -= units  # f
    c = hi.astype(np.int64)
    c += units.astype(np.int64)  # g
    base = c // 100
    base *= 100
    c -= base
    units = c.astype(np.float64)  # g - base, the 17-digit candidate
    u = units + lo  # y - base
    h = (a.view(np.uint64) & np.uint64(0x7FF0_0000_0000_0000)).view(np.float64)
    h *= s
    h *= 2.0**-53
    hundreds = u * 0.01
    np.rint(hundreds, out=hundreds)
    hundreds *= 100.0
    d100 = u - hundreds
    np.abs(d100, out=d100)
    tens = u * 0.1
    np.rint(tens, out=tens)
    tens *= 10.0
    d10 = u - tens
    np.abs(d10, out=d10)
    pick = np.where(d100 <= h, hundreds, np.where(d10 <= h, tens, units))
    # The smallest distance of a decision from its boundary.
    d100 -= h
    np.abs(d100, out=d100)
    np.subtract(d10, h, out=tens)
    np.fmin(d100, np.abs(tens, out=tens), out=d100)
    d10 -= 5.0
    np.fmin(d100, np.abs(d10, out=d10), out=d100)
    np.abs(lo, out=lo)
    np.fmin(d100, np.subtract(0.5, lo, out=lo), out=d100)
    slow = d100 < 1e-9
    slow |= a < 1e-4
    slow |= a >= 10.0
    zero = a == 0.0
    slow &= ~zero
    base += pick.astype(np.int64)  # the significand, 17 digits
    high = base // 100_000_000
    base -= high * 100_000_000
    low = base.astype(np.uint32)
    high = high.astype(np.uint32)
    d0 = high // 100_000_000
    high -= d0 * 100_000_000
    q1 = high // 10_000
    q2 = high - q1 * 10_000
    q3 = low // 10_000
    q4 = low - q3 * 10_000
    trail = np.uint32(_TRAIL)
    low_zero = low == 0
    rest_zero = low_zero & (q2 == 0)
    # "d.0" for an integral 1.0 to 9.0: the group "0" after the head "d.".
    keep0 = rest_zero & (q1 == 0) & (k == 4)
    head = np.signbit(x).view(np.uint8) * np.uint8(5)
    head += k
    head = head * np.uint32(10)
    head += d0
    # The heads with a point after d0 at X = 0, and the comma in their
    # first byte, which no head fills.
    heads = _HEADS[::2] | np.frombuffer(b",\0\0\0\0\0\0\0", np.uint64)
    cells = np.empty((x.size, 6), np.uint32)
    # A slow cell's d0 may be 10; its head is clipped, then overwritten.
    cells.view(np.uint64)[:, 0] = np.take(heads, head, mode="clip")
    group = np.take(_QUADS, q1 + rest_zero * trail + keep0 * np.uint32(2 * _TRAIL))
    group |= zero * np.frombuffer(b"\0\0.0", np.uint32)
    cells[:, 2] = group
    cells[:, 3] = np.take(_QUADS, q2 + low_zero * trail)
    cells[:, 4] = np.take(_QUADS, q3 + (q4 == 0) * trail)
    cells[:, 5] = np.take(_QUADS[_TRAIL:], q4)
    slow = np.flatnonzero(slow)
    values = x[slow]
    return _patch(cells.view(np.uint8), slow, [
        "," + (repr(v) if finite else "null")
        for v, finite in zip(values.tolist(), np.isfinite(values).tolist())])


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_chunks(value):
    """Compact JSON text of value, in pieces that hold at most one block of
    any array.

    Dicts are walked key by key, lists, tuples and arrays of more than one
    dimension item by item, and every 1-D array in blocks of
    ``_JSON_BLOCK`` elements (one column, so larger than a CSV block):
    float16/32/64 (widened, as ``tolist`` does) through ``_json_floats``
    and bools as words of ``_JSON_BOOLS``, byte rows joined without their
    NULs as CSV blocks are; integers and text as ``tolist`` through
    ``_compact``. Any other value is a leaf: a numpy one as its ``tolist``,
    a nan or infinite float as null, the rest through ``_compact``, so
    json.dumps (the C encoder) sees only plain Python values.
    """
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "") + _compact(key) + ":"
            yield from _json_chunks(value[key])
        yield "}"
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim > 1:
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _json_chunks(item)
        yield "]"
    elif isinstance(value, np.ndarray) and value.ndim == 1:
        yield "["
        for start in range(0, value.size, _JSON_BLOCK):
            block = value[start : start + _JSON_BLOCK]
            if block.dtype.kind == "b" or block.dtype.char in "efd":
                # Clipped, a bool's byte other than 0 or 1 is true, as in tolist.
                cells = (np.take(_JSON_BOOLS, block.view(np.uint8), mode="clip")
                         if block.dtype.kind == "b" else _json_floats(block))
                text = cells.tobytes().translate(None, b"\0").decode()
            else:
                text = "," + _compact(block.tolist())[1:-1]
            yield text[1:] if start == 0 else text  # without the array's first comma
        yield "]"
    else:
        if isinstance(value, (np.generic, np.ndarray)):
            value = value.tolist()
        yield "null" if isinstance(value, float) and not math.isfinite(value) else _compact(value)


def _emit(
    spec: RunSpec,
    summary: dict[str, Any],
    columns: dict[str, np.ndarray],
    results: dict[str, Any] | None = None,
) -> Path:
    # The artifact goes to a new file beside the path, created with the mode
    # a plain open() gives, and is moved onto the path after its last byte,
    # so the path only ever holds a complete artifact. On any exception the
    # new file is removed. JSON results are the CSV's columns unless a
    # handler passes its own.
    tmp = spec.out_path.parent / f".{spec.out_path.name}.{os.urandom(4).hex()}.tmp"
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            if spec.fmt == "json":
                payload = {
                    "tool": "sira",
                    "version": __version__,
                    "config": spec.config_echo,
                    "summary": summary,
                    "results": columns if results is None else results,
                }
                handle.writelines(_json_chunks(payload))
                handle.write("\n")
            else:
                handle.write(f"# sira {__version__}\n# config {_compact(spec.config_echo)}\n")
                for key in sorted(summary):
                    handle.write(f"# {key} ")
                    handle.writelines(_csv_rows({key: np.asarray(summary[key]).reshape(1)}))
                handle.write(",".join(columns) + "\n")
                handle.writelines(_csv_rows(columns))
        os.replace(tmp, spec.out_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return spec.out_path


# ---------------------------------------------------------------------------
# Handlers. An option's dest is the keyword under which the library call
# takes its value, so every handler passes its params straight through.


_AGENT_FIELDS = (
    "total_value",
    "scaling_factor",
    "deployment_value",
    "premium_value",
    "raw_bid",
    "bid",
    "predicted_utility",
    "participates",
    "accepted",
    "won_premium",
    "bid_paid",
    "realized_utility",
    "safety",
)


def _report_output(report: AuctionReport) -> tuple[dict, dict, dict]:
    summary = {
        name: getattr(report, name)
        for name in ("participation_rate", "mean_bid", "mean_realized_utility",
                     "premium_award_count")
    }
    agents = {name: getattr(report, name) for name in _AGENT_FIELDS}
    columns = {"agent": np.arange(report.n_agents)}
    for name, column in agents.items():
        columns[name] = column
        if name == "won_premium":
            columns["premium_wins"] = report.won_by_round.sum(axis=0)
    results = {
        "mechanism": report.mechanism,
        "aggregates": summary,
        "agents": agents,
        "won_by_round": report.won_by_round,
        "value_by_round": report.value_by_round,
    }
    return summary, columns, results


def _handle_agents(spec: RunSpec) -> Path:
    # Looked up in sira.mechanism when the command runs, so that a wrapper
    # installed there (tracing) is called.
    reserve = spec.subcommand == "reserve"
    engine = mechanism.run_reserve_threshold if reserve else mechanism.run_sira
    return _emit(spec, *_report_output(engine(AuctionConfig(**spec.params))))


def _handle_deviation(spec: RunSpec) -> Path:
    result = deviation_sweep(**spec.params)
    zero = result.optimum_index
    summary = {
        "base_bid": result.bids[zero],
        "mean_utility_at_optimum": result.mean_utility[zero],
    }
    columns = {
        "delta": result.deltas,
        "mean_utility": result.mean_utility,
        "std_err": result.std_error,
        "n_samples": np.full(result.deltas.size, spec.params["n_opponents"]),
        "bid": result.bids,
        "gap_vs_optimum": result.gap_vs_optimum,
        "gap_std_err": result.gap_std_error,
    }
    return _emit(spec, summary, columns)


def _handle_sweep(spec: RunSpec) -> Path:
    result = threshold_sweep(**spec.params, workers=spec.workers)
    best = int(np.nanargmax(result.participation_uplift))
    summary = {
        "max_participation_uplift": result.participation_uplift[best],
        "max_participation_uplift_p_eps": result.p_eps[best],
    }

    def by_mechanism(reserve: np.ndarray, sira: np.ndarray) -> np.ndarray:
        return np.column_stack([reserve, sira]).ravel()

    columns = {
        "p_eps": np.repeat(result.p_eps, 2),
        "mechanism": np.tile(["reserve", "sira"], result.p_eps.size),
        "participation_rate": by_mechanism(
            result.reserve_participation, result.sira_participation
        ),
        "mean_bid": by_mechanism(result.reserve_mean_bid, result.sira_mean_bid),
        "se_participation": by_mechanism(
            result.reserve_participation_se, result.sira_participation_se
        ),
        "se_bid": by_mechanism(result.reserve_mean_bid_se, result.sira_mean_bid_se),
    }
    # The paired uplift averages per-agent differences, which the
    # per-mechanism rows cannot give.
    uplift = {
        "participation_uplift": result.participation_uplift,
        "participation_uplift_se": result.participation_uplift_se,
    }
    return _emit(spec, summary, columns, {**columns, **uplift})


def _handle_validate_dist(spec: RunSpec) -> Path:
    result = validate_product_distribution(**spec.params)
    summary = {
        "pdf_sup_error": result.pdf_sup_error,
        "cdf_sup_error": result.cdf_sup_error,
        "ks_distance": result.ks_distance,
    }
    columns = {
        "bin_center": result.centers,
        "bin_right_edge": result.right_edges,
        "empirical_pdf": result.density,
        "analytic_pdf": result.analytic_density,
        "empirical_cdf": result.cumulative,
        "analytic_cdf": result.analytic_cdf,
    }
    return _emit(spec, summary, columns)


def _handle_crosscheck(spec: RunSpec) -> Path:
    result = closed_form_vs_quadrature(**spec.params)
    summary = {"max_abs_diff": result.max_abs_diff}
    n_p, n_v = result.closed_form.shape
    columns = {
        "family": np.full(n_p * n_v, spec.params["family"].value),
        "p_eps": np.repeat(result.p_eps, n_v),
        "v_p": np.tile(result.v_p, n_p),
        "closed_form_bid": result.closed_form.ravel(),
        "quadrature_bid": result.quadrature.ravel(),
        "abs_diff": np.abs(result.closed_form - result.quadrature).ravel(),
    }
    return _emit(spec, summary, columns)


# ---------------------------------------------------------------------------
# Command table


class _Command(NamedTuple):
    help: str
    options: list[_Opt]
    handler: Callable[[RunSpec], Path]


_COMMANDS: dict[str, _Command] = {
    "auction": _Command("simulate one SIRA round", [*_ENGINE_OPTS, _PAIRING], _handle_agents),
    "reserve": _Command("simulate reserve thresholding", _ENGINE_OPTS, _handle_agents),
    "repeat": _Command(
        "simulate repeated SIRA rounds with fixed bids",
        [*_ENGINE_OPTS, _PAIRING, _Opt("rounds", _to_int, 5, "number of repeated rounds")],
        _handle_agents,
    ),
    "deviation": _Command(
        "measure the cost of deviating from the equilibrium bid",
        [
            _FAMILY,
            _P_EPS,
            _Opt("probe_v_d", _to_float, 0.5, "probe agent deployment value"),
            _Opt("probe_v_p", _to_float, 0.25, "probe agent premium value"),
            _Opt("deltas", _to_float_list, [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5],
                 "comma list of bid deviation fractions"),
            _Opt("n_opponents", _to_int, 100_000, "equilibrium opponents per deviation"),
            _SEED,
        ],
        _handle_deviation,
    ),
    "sweep": _Command(
        "compare mechanisms across clearing prices",
        [
            _FAMILY,
            _Opt("p_eps_grid", _to_grid, [float(x) for x in np.linspace(0.1, 0.9, 17)],
                 "clearing-price grid (start:stop:count or comma list)"),
            _Opt("n_agents", _to_int, 100_000, "population size per grid point"),
            _GAMMA,
            _SEED,
        ],
        _handle_sweep,
    ),
    "validate-dist": _Command(
        "validate the premium-value distribution by Monte Carlo",
        [
            _FAMILY,
            _P_EPS,
            _Opt("n_samples", _to_int, 1_000_000, "Monte Carlo sample count"),
            _Opt("bins", _to_int, 40, "histogram bins over [0, 1/2]"),
            _SEED,
        ],
        _handle_validate_dist,
    ),
    "crosscheck": _Command(
        "compare closed-form bids with the quadrature route",
        [
            _FAMILY,
            _Opt("v_p_grid", _to_grid, [float(x) for x in np.linspace(0.0, 0.5, 200)],
                 "premium-value grid (start:stop:count or comma list)"),
            _Opt("p_eps_list", _to_float_list, [0.1, 0.25, 0.5, 0.75, 0.9],
                 "comma list of clearing prices"),
        ],
        _handle_crosscheck,
    ),
}


def execute(spec: RunSpec) -> Path:
    """Run one resolved specification and write its output file."""
    return _COMMANDS[spec.subcommand].handler(spec)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        spec = parse_run_spec(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    try:
        path = execute(spec)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error writing {spec.out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print(f"out of memory: could not produce {spec.out_path}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
