"""Output checks: parse each op's artifact and recount it independently.

Nothing here compares stored bytes. Each check re-derives what it can
from the op's own arguments (the config echo, row and column counts,
grids) and from the artifact's other columns (summary lines, identities
between columns), so a change that legitimately alters bytes still
passes while a corrupted or inconsistent artifact fails.

CSV cells carry 9 significant digits, so recounts from CSV rows use an
absolute tolerance of 1e-8; JSON carries full doubles and uses 1e-12.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ops import Op

CSV_TOL = 1e-8
JSON_TOL = 1e-12
CDF_SUP_BAR = 0.01  # acceptance gate, criterion 2
CROSSCHECK_BAR = 1e-8  # acceptance gate, criterion 1
# The gate asks |z| <= 3 at one fixed seed. Over hundreds of seeded ops
# that bar would fail about one op in 370 by chance; 5 keeps a real bias
# visible while false alarms stay below one in a million.
Z_BAR = 5.0

AGENT_COLUMNS = [
    "agent", "total_value", "scaling_factor", "deployment_value", "premium_value",
    "raw_bid", "bid", "predicted_utility", "participates", "accepted", "won_premium",
    "premium_wins", "bid_paid", "realized_utility", "safety",
]
# The equilibrium_crosscheck result fields kept for its digest and check.
EQ_FIELDS = ("p_eps", "bucket_center", "bucket_halfwidth", "n_pairings", "seed",
             "mean_realized", "mean_predicted", "gap", "gap_se")
_JSON_AGENT_ARRAYS = [c for c in AGENT_COLUMNS if c not in ("agent", "premium_wins")]


class CheckError(Exception):
    """An artifact disagrees with its op or with its own recount."""


def _require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise CheckError(what)


def _close(a, b, tol: float, what: str) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same_nan = np.isnan(a) & np.isnan(b)
    _require(same_nan | (np.abs(a - b) <= tol), what)


def _round9(x):
    """A value as the CSV writer prints it, read back."""
    return float(format(float(x), ".9g"))


# ---------------------------------------------------------------------------
# Readers


class Artifact:
    """Header, summary and columns of one artifact, in either format."""

    def __init__(self, echo: dict, summary: dict, columns: dict, fmt: str, extra=None):
        self.echo = echo
        self.summary = summary
        self.columns = columns
        self.fmt = fmt
        self.extra = extra or {}
        self.tol = CSV_TOL if fmt == "csv" else JSON_TOL

    def printed(self, x) -> float:
        """x as this format stores it."""
        return _round9(x) if self.fmt == "csv" else float(x)


def read_csv(path, version: str, text_columns=()) -> tuple[Artifact, list[str]]:
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != f"# sira {version}\n":
            raise CheckError("first line is not the tool/version line")
        line = fh.readline()
        if not line.startswith("# config "):
            raise CheckError("second line is not the config echo")
        echo = json.loads(line[len("# config "):])
        summary = {}
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition(" ")
            summary[key] = float(value)
            line = fh.readline()
        names = line.rstrip("\n").split(",")
        try:
            if text_columns:
                raw = np.loadtxt(fh, delimiter=",", dtype=str, ndmin=2)
            else:
                raw = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise CheckError(f"rows do not parse: {exc}") from None
    if raw.size and raw.shape[1] != len(names):
        raise CheckError(f"{raw.shape[1]} columns in rows, {len(names)} in header")
    columns = {}
    for j, name in enumerate(names):
        col = raw[:, j] if raw.size else np.empty(0)
        if name not in text_columns:
            try:
                col = col.astype(float)
            except ValueError:
                raise CheckError(f"column {name} is not numeric") from None
        columns[name] = col
    return Artifact(echo, summary, columns, "csv"), names


def read_json(path, version: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckError(f"not valid JSON: {exc}") from None
    if payload.get("tool") != "sira" or payload.get("version") != version:
        raise CheckError("tool/version fields are wrong")
    return payload


# ---------------------------------------------------------------------------
# Per-kind checks


def _check_echo(art: Artifact, op: Op) -> None:
    if art.echo != op.expected_echo():
        raise CheckError(f"config echo {art.echo} does not match the op's arguments")


def _check_agents(op: Op, path, version: str) -> None:
    p = op.params
    n = p["n_agents"]
    rounds = p.get("rounds", 1)
    if op.fmt == "csv":
        art, names = read_csv(path, version)
        if names != AGENT_COLUMNS:
            raise CheckError(f"columns {names}")
    else:
        payload = read_json(path, version)
        results = payload["results"]
        agents = results["agents"]
        if sorted(agents) != sorted(_JSON_AGENT_ARRAYS):
            raise CheckError(f"agent arrays {sorted(agents)}")
        if payload["summary"] != results["aggregates"]:
            raise CheckError("summary and aggregates differ")
        won_by_round = np.asarray(results["won_by_round"], dtype=bool)
        value_by_round = np.asarray(results["value_by_round"], dtype=float)
        if won_by_round.shape != (rounds, n) or value_by_round.shape != (rounds, n):
            raise CheckError(f"per-round arrays shaped {won_by_round.shape}")
        columns = {k: np.asarray(v, dtype=float) for k, v in agents.items()}
        columns["agent"] = np.arange(n, dtype=float)
        columns["premium_wins"] = won_by_round.sum(axis=0).astype(float)
        art = Artifact(payload["config"], payload["summary"], columns, "json",
                       {"mechanism": results["mechanism"], "value_by_round": value_by_round})
    _check_echo(art, op)
    c = art.columns
    tol = art.tol
    if c["agent"].size != n:
        raise CheckError(f"{c['agent'].size} rows for {n} agents")
    _require(c["agent"] == np.arange(n), "agent column is not 0..n-1")
    for name in ("participates", "accepted", "won_premium"):
        _require((c[name] == 0) | (c[name] == 1), f"{name} is not a flag")
    total, lam = c["total_value"], c["scaling_factor"]
    _require((total >= 0) & (total <= 1) & (lam >= 0) & (lam <= 0.5), "valuation out of range")
    _close(c["premium_value"], lam * total, tol, "premium_value != scaling_factor * total_value")
    _close(c["deployment_value"] + c["premium_value"], total, tol,
           "deployment_value + premium_value != total_value")
    part = c["participates"] == 1
    _require(c["accepted"] == c["participates"], "accepted differs from participates")
    _require(part == (c["predicted_utility"] > 0), "participation disagrees with utility sign")
    _require(c["bid"] == np.minimum(c["raw_bid"], 1.0), "bid is not the capped raw bid")
    _require(c["bid_paid"] == np.where(part, c["bid"], 0.0), "bid_paid is not the sunk bid")
    _require(c["safety"] == np.where(part, c["bid"], 0.0), "safety is not M^-1(bid) at gamma 1")
    wins = c["premium_wins"]
    _require((wins >= 0) & (wins <= rounds) & (wins == np.round(wins)),
             "premium_wins out of range")
    _require((c["won_premium"] == 1) == (wins > 0), "won_premium disagrees with premium_wins")
    _require(~((c["won_premium"] == 1) & ~part), "premium won without acceptance")
    floor = art.printed(p["p_eps"])
    if op.kind == "reserve":
        _require(c["bid"] == floor, "reserve bid is not the clearing price")
        _require(wins == 0, "reserve awarded a premium")
        _close(c["predicted_utility"], c["deployment_value"] - p["p_eps"], tol,
               "reserve utility != v_d - p_eps")
    else:
        _require(c["raw_bid"] >= floor, "SIRA bid below the clearing price")
    gained = np.where(part, c["deployment_value"], 0.0) + c["premium_value"] * wins
    _close(c["realized_utility"], gained - c["bid_paid"], tol * (1 + rounds),
           "realized utility != value gained - bid paid")
    if art.fmt == "json":
        expected = "reserve-threshold" if op.kind == "reserve" else "sira"
        if art.extra["mechanism"] != expected:
            raise CheckError(f"mechanism {art.extra['mechanism']!r}")
        _close(art.extra["value_by_round"].sum(axis=0) - c["bid_paid"],
               c["realized_utility"], tol, "realized utility != per-round values - bid")
    s = art.summary
    if sorted(s) != ["mean_bid", "mean_realized_utility", "participation_rate",
                     "premium_award_count"]:
        raise CheckError(f"summary keys {sorted(s)}")
    if art.printed(part.mean()) != s["participation_rate"]:
        raise CheckError("participation_rate differs from the recount")
    if int(wins.sum()) != s["premium_award_count"]:
        raise CheckError("premium_award_count differs from the recount")
    mean_bid = c["bid"][part].mean() if part.any() else math.nan
    _close(mean_bid, s["mean_bid"], tol, "mean_bid differs from the recount")
    _close(c["realized_utility"].mean(), s["mean_realized_utility"], tol,
           "mean_realized_utility differs from the recount")


def _csv_only(op: Op) -> None:
    if op.fmt != "csv":
        raise CheckError(f"no checker for {op.kind} in {op.fmt}")


def _check_sweep(op: Op, path, version: str) -> None:
    _csv_only(op)
    art, names = read_csv(path, version, text_columns=("mechanism",))
    if names != ["p_eps", "mechanism", "participation_rate", "mean_bid",
                 "se_participation", "se_bid"]:
        raise CheckError(f"columns {names}")
    _check_echo(art, op)
    c, tol = art.columns, art.tol
    grid = np.linspace(*op.params["p_eps_grid"])
    n = op.params["n_agents"]
    if c["p_eps"].size != 2 * grid.size:
        raise CheckError(f"{c['p_eps'].size} rows for a {grid.size}-point grid")
    _require(c["mechanism"] == np.tile(["reserve", "sira"], grid.size), "mechanism column order")
    printed_grid = np.array([_round9(g) for g in grid])
    _require(c["p_eps"] == np.repeat(printed_grid, 2), "p_eps column is not the grid")
    rate = c["participation_rate"]
    _require((rate >= 0) & (rate <= 1), "participation outside [0, 1]")
    se = np.sqrt(rate * (1 - rate) * n / (n - 1)) / np.sqrt(n)
    _close(c["se_participation"], se, 1e-7 * np.maximum(se, 1e-9),
           "se_participation differs from the recount")
    reserve, sira = rate[0::2], rate[1::2]
    _require(sira >= reserve - tol, "SIRA participation below reserve participation")
    bids = c["mean_bid"]
    _close(np.where(reserve > 0, bids[0::2], math.nan),
           np.where(reserve > 0, printed_grid, math.nan), tol, "reserve mean bid != p_eps")
    _require(np.isnan(bids[1::2]) | (bids[1::2] >= printed_grid), "SIRA mean bid below p_eps")
    uplift = sira - reserve
    best = art.summary["max_participation_uplift"]
    _close(uplift.max(), best, tol, "max_participation_uplift differs from the recount")
    at = printed_grid == art.summary["max_participation_uplift_p_eps"]
    if at.sum() != 1:
        raise CheckError("max_participation_uplift_p_eps is not a grid point")
    _close(uplift[at], best, tol, "uplift at the reported p_eps is not the maximum")


def _check_deviation(op: Op, path, version: str) -> None:
    _csv_only(op)
    art, names = read_csv(path, version)
    if names != ["delta", "mean_utility", "std_err", "n_samples", "bid", "gap_vs_optimum",
                 "gap_std_err"]:
        raise CheckError(f"columns {names}")
    _check_echo(art, op)
    p, c, tol = op.params, art.columns, art.tol
    deltas = np.unique(np.append(np.asarray(p["deltas"], dtype=float), 0.0))
    if c["delta"].size != deltas.size:
        raise CheckError(f"{c['delta'].size} rows for {deltas.size} deltas")
    _require(c["delta"] == [_round9(d) for d in deltas], "delta column")
    _require(c["n_samples"] == p["n_opponents"], "n_samples is not n_opponents")
    zero = deltas == 0.0
    _require((c["gap_vs_optimum"][zero] == 0) & (c["gap_std_err"][zero] == 0), "gap at delta 0")
    base = art.summary["base_bid"]
    _require(c["bid"][zero] == base, "base_bid is not the bid at delta 0")
    _close(c["bid"], np.minimum((1 + deltas) * base, 1.0), tol, "bid != (1 + delta) * base_bid")
    _require(c["mean_utility"][zero] == art.summary["mean_utility_at_optimum"],
             "mean_utility_at_optimum is not the delta-0 row")
    bid = c["bid"]
    rejected = bid < art.printed(p["p_eps"])
    _require(c["mean_utility"][rejected] == -bid[rejected], "rejected bid utility != -bid")
    _require(c["std_err"][rejected] == 0, "rejected bid has spread")
    v_d, v_p = p["probe_v_d"], p["probe_v_p"]
    u = c["mean_utility"][~rejected]
    b = bid[~rejected]
    _require((u >= v_d - b - tol) & (u <= v_d + v_p - b + tol),
             "mean utility outside [v_d - bid, v_d + v_p - bid]")
    _require((c["std_err"] >= 0) & (c["gap_std_err"] >= 0), "negative standard error")


def _check_validate(op: Op, path, version: str) -> None:
    _csv_only(op)
    art, names = read_csv(path, version)
    if names != ["bin_center", "bin_right_edge", "empirical_pdf", "analytic_pdf",
                 "empirical_cdf", "analytic_cdf"]:
        raise CheckError(f"columns {names}")
    _check_echo(art, op)
    p, c, tol = op.params, art.columns, art.tol
    bins = p["bins"]
    if c["bin_center"].size != bins:
        raise CheckError(f"{c['bin_center'].size} rows for {bins} bins")
    edges = np.linspace(0.0, 0.5, bins + 1)
    width = 0.5 / bins
    _close(c["bin_right_edge"], edges[1:], tol, "bin edges")
    _close(c["bin_center"], 0.5 * (edges[:-1] + edges[1:]), tol, "bin centers")
    emp = c["empirical_cdf"]
    _require(np.diff(emp) >= 0, "empirical cdf decreases")
    _require(emp[-1] == 1.0, "empirical cdf does not end at 1")
    _close(emp, np.cumsum(c["empirical_pdf"] * width), 1e-6, "empirical cdf != summed pdf")
    cdf_sup = float(np.max(np.abs(emp - c["analytic_cdf"])))
    _close(cdf_sup, art.summary["cdf_sup_error"], tol, "cdf_sup_error differs from the recount")
    interior = np.abs(c["bin_center"] - p["p_eps"] / 2) > width
    pdf_sup = float(np.max(np.abs(c["empirical_pdf"] - c["analytic_pdf"])[interior]))
    _close(pdf_sup, art.summary["pdf_sup_error"], tol * 10,
           "pdf_sup_error differs from the recount")
    if not cdf_sup < CDF_SUP_BAR:
        raise CheckError(f"cdf_sup_error {cdf_sup:.4g} not below {CDF_SUP_BAR}")


def _check_crosscheck(op: Op, path, version: str) -> None:
    _csv_only(op)
    art, names = read_csv(path, version, text_columns=("family",))
    if names != ["family", "p_eps", "v_p", "closed_form_bid", "quadrature_bid", "abs_diff"]:
        raise CheckError(f"columns {names}")
    _check_echo(art, op)
    p, c, tol = op.params, art.columns, art.tol
    v_grid = np.linspace(*p["v_p_grid"])
    prices = p["p_eps_list"]
    if c["v_p"].size != v_grid.size * len(prices):
        raise CheckError(f"{c['v_p'].size} rows for a {len(prices)}x{v_grid.size} grid")
    _require(c["family"] == p["family"], "family column")
    _require(c["p_eps"] == np.repeat([_round9(x) for x in prices], v_grid.size), "p_eps column")
    _require(c["v_p"] == np.tile([_round9(v) for v in v_grid], len(prices)), "v_p column")
    closed, quad = c["closed_form_bid"], c["quadrature_bid"]
    _close(closed, quad, CROSSCHECK_BAR + 2 * tol, "closed form and quadrature disagree")
    _require(closed >= c["p_eps"], "bid below the clearing price")
    _require(np.diff(closed.reshape(len(prices), -1), axis=1) >= 0, "bid decreases in v_p")
    worst = float(c["abs_diff"].max())
    if _round9(worst) != art.summary["max_abs_diff"]:
        raise CheckError("max_abs_diff is not the largest abs_diff")
    if not worst < CROSSCHECK_BAR:
        raise CheckError(f"max_abs_diff {worst:.3g} not below {CROSSCHECK_BAR}")


def check_equilibrium(op: Op, fields: dict) -> None:
    """Check an equilibrium_crosscheck result (EQ_FIELDS) against its op."""
    p = op.params
    echo = {k: fields.get(k) for k in ("family", "p_eps", "bucket_center", "bucket_halfwidth",
                                        "n_pairings", "seed")}
    if echo != p:
        raise CheckError(f"result echoes {echo}, not the op's arguments")
    values = [fields[k] for k in ("mean_realized", "mean_predicted", "gap", "gap_se")]
    if not all(math.isfinite(v) for v in values) or fields["gap_se"] <= 0:
        raise CheckError("non-finite or degenerate statistics")
    _close(fields["gap"], fields["mean_realized"] - fields["mean_predicted"], 1e-9,
           "gap != mean realized - mean predicted")
    z = fields["gap"] / fields["gap_se"]
    if abs(z) > Z_BAR:
        raise CheckError(f"|z| = {abs(z):.2f} above {Z_BAR}")


_CHECKERS = {
    "auction": _check_agents,
    "reserve": _check_agents,
    "repeat": _check_agents,
    "sweep": _check_sweep,
    "deviation": _check_deviation,
    "validate-dist": _check_validate,
    "crosscheck": _check_crosscheck,
}


def check_artifact(op: Op, path, version: str) -> None:
    """Raise CheckError unless the artifact at path is right for op."""
    checker = _CHECKERS.get(op.kind)
    if checker is None:
        raise CheckError(f"no artifact checker for {op.kind}")
    try:
        checker(op, path, version)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed artifact: {exc!r}") from None
