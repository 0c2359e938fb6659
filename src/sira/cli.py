"""Command-line interface.

Subcommands: auction (one SIRA round), reserve (reserve thresholding),
repeat (repeated SIRA rounds), deviation (Nash deviation sweep), sweep
(mechanism comparison across clearing prices), validate-dist
(premium-value distribution check), crosscheck (closed-form bids
against quadrature).

Every output file is self-describing: it carries the tool version and
the echoed run configuration, including the seed, and contains no
timestamps, so rerunning the same specification writes byte-identical
files. --workers never changes results; it only parallelizes sweep
evaluation. Options may also be supplied through --config FILE (JSON
object keyed by option name); explicit flags win over the file, which
wins over defaults. Unknown config fields are rejected.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, NumericalError
from .mechanism import (
    AuctionConfig,
    AuctionReport,
    PairingMode,
    run_repeated_sira,
    run_reserve_threshold,
    run_sira,
)
from .experiments import (
    closed_form_vs_quadrature,
    deviation_sweep,
    threshold_sweep,
    validate_product_distribution,
)
from .seeding import fresh_seed
from .value_model import AgentValuation, ValueFamily

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "SIRA_OUTPUT_DIR"

_FAMILIES = [f.value for f in ValueFamily]
_PAIRINGS = {
    "independent": PairingMode.INDEPENDENT_OPPONENT,
    "perfect": PairingMode.PERFECT_MATCHING,
}


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


def _to_family(value) -> str:
    text = str(value)
    if text not in _FAMILIES:
        raise ConfigError(f"expected one of {_FAMILIES}, got {value!r}")
    return text


def _to_pairing(value) -> str:
    text = str(value)
    if text not in _PAIRINGS:
        raise ConfigError(f"expected one of {sorted(_PAIRINGS)}, got {value!r}")
    return text


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
        if count < 2:
            raise ConfigError(f"grid count must be at least 2, got {count}")
        return [float(x) for x in np.linspace(start, stop, count)]
    return _to_float_list(value)


# ---------------------------------------------------------------------------
# Command registry


@dataclass(frozen=True)
class _Opt:
    dest: str
    converter: Callable[[Any], Any]
    default: Any
    help: str
    choices: tuple[str, ...] | None = None

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


def _seed_opt() -> _Opt:
    return _Opt("seed", _to_int, None, "root seed (default: drawn from OS entropy)")


def _family_opt() -> _Opt:
    return _Opt(
        "family",
        _to_family,
        "uniform",
        "total-value family",
        choices=tuple(_FAMILIES),
    )


_ENGINE_OPTS = [
    _Opt("n_agents", _to_int, 100_000, "population size"),
    _Opt("p_eps", _to_float, 0.5, "clearing price of the mandated safety level"),
    _family_opt(),
    _Opt("gamma", _to_float, 1.0, "safety-cost exponent"),
    _seed_opt(),
]

_COMMAND_OPTIONS: dict[str, list[_Opt]] = {
    "auction": [
        *_ENGINE_OPTS,
        _Opt(
            "pairing",
            _to_pairing,
            "independent",
            "premium pairing rule",
            choices=tuple(sorted(_PAIRINGS)),
        ),
    ],
    "reserve": list(_ENGINE_OPTS),
    "repeat": [
        *_ENGINE_OPTS,
        _Opt(
            "pairing",
            _to_pairing,
            "independent",
            "premium pairing rule",
            choices=tuple(sorted(_PAIRINGS)),
        ),
        _Opt("rounds", _to_int, 5, "number of repeated rounds"),
    ],
    "deviation": [
        _family_opt(),
        _Opt("p_eps", _to_float, 0.5, "clearing price"),
        _Opt("probe_v_d", _to_float, 0.5, "probe agent deployment value"),
        _Opt("probe_v_p", _to_float, 0.25, "probe agent premium value"),
        _Opt(
            "deltas",
            _to_float_list,
            [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5],
            "comma list of bid deviation fractions",
        ),
        _Opt("n_opponents", _to_int, 100_000, "equilibrium opponents per deviation"),
        _seed_opt(),
    ],
    "sweep": [
        _family_opt(),
        _Opt("p_eps_grid", _to_grid, [float(x) for x in np.linspace(0.1, 0.9, 17)],
             "clearing-price grid (start:stop:count or comma list)"),
        _Opt("n_agents", _to_int, 100_000, "population size per grid point"),
        _Opt("gamma", _to_float, 1.0, "safety-cost exponent"),
        _seed_opt(),
    ],
    "validate-dist": [
        _family_opt(),
        _Opt("p_eps", _to_float, 0.5, "clearing price"),
        _Opt("n_samples", _to_int, 1_000_000, "Monte Carlo sample count"),
        _Opt("bins", _to_int, 40, "histogram bins over [0, 1/2]"),
        _seed_opt(),
    ],
    "crosscheck": [
        _family_opt(),
        _Opt("v_p_grid", _to_grid, [float(x) for x in np.linspace(0.0, 0.5, 200)],
             "premium-value grid (start:stop:count or comma list)"),
        _Opt("p_eps_list", _to_float_list, [0.1, 0.25, 0.5, 0.75, 0.9],
             "comma list of clearing prices"),
    ],
}

_COMMAND_HELP = {
    "auction": "simulate one SIRA round",
    "reserve": "simulate reserve thresholding",
    "repeat": "simulate repeated SIRA rounds with fixed bids",
    "deviation": "measure the cost of deviating from the equilibrium bid",
    "sweep": "compare mechanisms across clearing prices",
    "validate-dist": "validate the premium-value distribution by Monte Carlo",
    "crosscheck": "compare closed-form bids with the quadrature route",
}


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
        return {"subcommand": self.subcommand, **self.params}


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
    for name, opts in _COMMAND_OPTIONS.items():
        sub = subparsers.add_parser(name, help=_COMMAND_HELP[name])
        for opt in opts:
            kwargs: dict[str, Any] = {
                "dest": opt.dest,
                "default": None,
                "help": opt.help,
            }
            if opt.choices is not None:
                kwargs["choices"] = list(opt.choices)
            sub.add_argument(opt.flag, **kwargs)
        sub.add_argument("--config", default=None, help="JSON file with option defaults")
        sub.add_argument("--out", default=None, help="output file path")
        sub.add_argument(
            "--format", choices=["csv", "json"], default="csv", dest="fmt",
            help="output format (default csv)",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="worker threads for independent grid points (never changes results)",
        )
    return parser


def _load_config_file(path: Path, subcommand: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    allowed = {opt.dest for opt in _COMMAND_OPTIONS[subcommand]}
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
    for opt in _COMMAND_OPTIONS[subcommand]:
        raw = getattr(ns, opt.dest)
        if raw is None and opt.dest in file_values:
            raw = file_values[opt.dest]
        if raw is None:
            params[opt.dest] = opt.default
            continue
        try:
            params[opt.dest] = opt.converter(raw)
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
    return RunSpec(
        subcommand=subcommand,
        params=params,
        out_path=out_path,
        fmt=fmt,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Output writers


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _emit(
    spec: RunSpec,
    summary: dict[str, Any],
    columns: list[str],
    rows: Iterable[tuple],
    results: dict[str, Any],
) -> Path:
    echo = json.dumps(_jsonable(spec.config_echo), sort_keys=True, separators=(",", ":"))
    if spec.fmt == "csv":
        lines = [f"# sira {__version__}", f"# config {echo}"]
        for key in sorted(summary):
            lines.append(f"# {key} {_cell(summary[key])}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        _write_text(spec.out_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "tool": "sira",
            "version": __version__,
            "config": _jsonable(spec.config_echo),
            "summary": _jsonable(summary),
            "results": _jsonable(results),
        }
        _write_text(spec.out_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return spec.out_path


# ---------------------------------------------------------------------------
# Handlers


def _auction_config(params: dict[str, Any], rounds: int = 1) -> AuctionConfig:
    return AuctionConfig(
        n_agents=params["n_agents"],
        p_eps=params["p_eps"],
        family=ValueFamily(params["family"]),
        seed=params["seed"],
        gamma=params["gamma"],
        rounds=rounds,
        pairing=_PAIRINGS[params.get("pairing", "independent")],
    )


def _report_output(report: AuctionReport) -> tuple[dict, list[str], list[tuple], dict]:
    summary = {
        "participation_rate": report.participation_rate,
        "mean_bid": report.mean_bid,
        "mean_realized_utility": report.mean_realized_utility,
        "premium_award_count": report.premium_award_count,
    }
    columns = [
        "agent",
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
        "premium_wins",
        "bid_paid",
        "realized_utility",
        "safety",
    ]
    premium_wins = report.won_by_round.sum(axis=0)
    won_any = report.won_premium
    rows = [
        (
            i,
            report.total_value[i],
            report.scaling_factor[i],
            report.deployment_value[i],
            report.premium_value[i],
            report.raw_bid[i],
            report.bid[i],
            report.predicted_utility[i],
            report.participates[i],
            report.accepted[i],
            won_any[i],
            premium_wins[i],
            report.bid_paid[i],
            report.realized_utility[i],
            report.safety[i],
        )
        for i in range(report.n_agents)
    ]
    results = {
        "mechanism": report.mechanism,
        "aggregates": summary,
        "agents": {
            "total_value": report.total_value,
            "scaling_factor": report.scaling_factor,
            "deployment_value": report.deployment_value,
            "premium_value": report.premium_value,
            "raw_bid": report.raw_bid,
            "bid": report.bid,
            "predicted_utility": report.predicted_utility,
            "participates": report.participates,
            "accepted": report.accepted,
            "won_premium": won_any,
            "bid_paid": report.bid_paid,
            "realized_utility": report.realized_utility,
            "safety": report.safety,
        },
        "won_by_round": report.won_by_round,
        "value_by_round": report.value_by_round,
    }
    return summary, columns, rows, results


def _handle_auction(spec: RunSpec) -> Path:
    report = run_sira(_auction_config(spec.params))
    return _emit(spec, *_report_output(report))


def _handle_reserve(spec: RunSpec) -> Path:
    report = run_reserve_threshold(_auction_config(spec.params))
    return _emit(spec, *_report_output(report))


def _handle_repeat(spec: RunSpec) -> Path:
    report = run_repeated_sira(_auction_config(spec.params, rounds=spec.params["rounds"]))
    return _emit(spec, *_report_output(report))


def _handle_deviation(spec: RunSpec) -> Path:
    p = spec.params
    total = p["probe_v_d"] + p["probe_v_p"]
    if total <= 0.0:
        raise ConfigError("probe values must not both be zero")
    try:
        probe = AgentValuation(total_value=total, scaling_factor=p["probe_v_p"] / total)
    except DomainError as exc:
        raise ConfigError(f"invalid probe valuation: {exc}") from None
    result = deviation_sweep(
        ValueFamily(p["family"]),
        p["p_eps"],
        probe,
        p["deltas"],
        p["n_opponents"],
        p["seed"],
    )
    zero = result.optimum_index
    summary = {
        "base_bid": result.bids[zero],
        "mean_utility_at_optimum": result.mean_utility[zero],
    }
    columns = [
        "delta",
        "mean_utility",
        "std_err",
        "n_samples",
        "bid",
        "gap_vs_optimum",
        "gap_std_err",
    ]
    rows = [
        (
            result.deltas[i],
            result.mean_utility[i],
            result.std_error[i],
            result.n_opponents,
            result.bids[i],
            result.gap_vs_optimum[i],
            result.gap_std_error[i],
        )
        for i in range(result.deltas.size)
    ]
    results = {
        "deltas": result.deltas,
        "bids": result.bids,
        "mean_utility": result.mean_utility,
        "std_error": result.std_error,
        "gap_vs_optimum": result.gap_vs_optimum,
        "gap_std_error": result.gap_std_error,
        "n_opponents": result.n_opponents,
        "optimum_index": zero,
    }
    return _emit(spec, summary, columns, rows, results)


def _handle_sweep(spec: RunSpec) -> Path:
    p = spec.params
    result = threshold_sweep(
        ValueFamily(p["family"]),
        p["p_eps_grid"],
        p["n_agents"],
        p["seed"],
        gamma=p["gamma"],
        workers=spec.workers,
    )
    best = int(np.nanargmax(result.participation_uplift))
    summary = {
        "max_participation_uplift": result.participation_uplift[best],
        "max_participation_uplift_p_eps": result.p_eps[best],
    }
    columns = [
        "p_eps",
        "mechanism",
        "participation_rate",
        "mean_bid",
        "se_participation",
        "se_bid",
    ]
    rows = []
    for i in range(result.p_eps.size):
        rows.append(
            (
                result.p_eps[i],
                "reserve",
                result.reserve_participation[i],
                result.reserve_mean_bid[i],
                result.reserve_participation_se[i],
                result.reserve_mean_bid_se[i],
            )
        )
        rows.append(
            (
                result.p_eps[i],
                "sira",
                result.sira_participation[i],
                result.sira_mean_bid[i],
                result.sira_participation_se[i],
                result.sira_mean_bid_se[i],
            )
        )
    results = {
        "p_eps": result.p_eps,
        "reserve_participation": result.reserve_participation,
        "reserve_participation_se": result.reserve_participation_se,
        "reserve_mean_bid": result.reserve_mean_bid,
        "reserve_mean_bid_se": result.reserve_mean_bid_se,
        "sira_participation": result.sira_participation,
        "sira_participation_se": result.sira_participation_se,
        "sira_mean_bid": result.sira_mean_bid,
        "sira_mean_bid_se": result.sira_mean_bid_se,
        "participation_uplift": result.participation_uplift,
        "participation_uplift_se": result.participation_uplift_se,
        "mean_bid_uplift": result.mean_bid_uplift,
        "mean_bid_uplift_se": result.mean_bid_uplift_se,
        "n_agents": result.n_agents,
    }
    return _emit(spec, summary, columns, rows, results)


def _handle_validate_dist(spec: RunSpec) -> Path:
    p = spec.params
    result = validate_product_distribution(
        ValueFamily(p["family"]), p["p_eps"], p["n_samples"], p["bins"], p["seed"]
    )
    summary = {
        "pdf_sup_error": result.pdf_sup_error,
        "cdf_sup_error": result.cdf_sup_error,
        "ks_distance": result.ks_distance,
    }
    columns = [
        "bin_center",
        "bin_right_edge",
        "empirical_pdf",
        "analytic_pdf",
        "empirical_cdf",
        "analytic_cdf",
    ]
    table = result.table
    centers = table.centers
    rights = table.right_edges
    rows = [
        (
            centers[i],
            rights[i],
            table.density[i],
            result.analytic_density[i],
            table.cumulative[i],
            result.analytic_cdf[i],
        )
        for i in range(centers.size)
    ]
    results = {
        "bin_edges": table.bin_edges,
        "empirical_pdf": table.density,
        "analytic_pdf": result.analytic_density,
        "empirical_cdf": table.cumulative,
        "analytic_cdf": result.analytic_cdf,
        "pdf_sup_error": result.pdf_sup_error,
        "cdf_sup_error": result.cdf_sup_error,
        "ks_distance": result.ks_distance,
    }
    return _emit(spec, summary, columns, rows, results)


def _handle_crosscheck(spec: RunSpec) -> Path:
    p = spec.params
    result = closed_form_vs_quadrature(
        ValueFamily(p["family"]), p["v_p_grid"], p["p_eps_list"]
    )
    summary = {"max_abs_diff": result.max_abs_diff}
    columns = ["family", "p_eps", "v_p", "closed_form_bid", "quadrature_bid", "abs_diff"]
    rows = []
    for i in range(result.p_eps.size):
        for j in range(result.v_p.size):
            closed = result.closed_form[i, j]
            quad = result.quadrature[i, j]
            rows.append(
                (
                    p["family"],
                    result.p_eps[i],
                    result.v_p[j],
                    closed,
                    quad,
                    abs(closed - quad),
                )
            )
    results = {
        "p_eps": result.p_eps,
        "v_p": result.v_p,
        "closed_form": result.closed_form,
        "quadrature": result.quadrature,
        "max_abs_diff": result.max_abs_diff,
    }
    return _emit(spec, summary, columns, rows, results)


_HANDLERS: dict[str, Callable[[RunSpec], Path]] = {
    "auction": _handle_auction,
    "reserve": _handle_reserve,
    "repeat": _handle_repeat,
    "deviation": _handle_deviation,
    "sweep": _handle_sweep,
    "validate-dist": _handle_validate_dist,
    "crosscheck": _handle_crosscheck,
}


def execute(spec: RunSpec) -> Path:
    """Run one resolved specification and write its output file."""
    return _HANDLERS[spec.subcommand](spec)


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
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
