"""Workload definitions: the ops each closed-loop workload runs.

An op is one `sira.cli.main(argv)` call, or one library call where the
CLI has no subcommand for it (`equilibrium_crosscheck`). A workload is
an endless sequence of cycles. Every cycle has the same composition
(kinds, sizes, families, pairings, worker counts and which ops fall in
the edge window); the workload seed only draws each op's `p_eps` within
its stratum, its grid jitter and its `--seed`. Run-to-run spread then
comes from the machine, not from a changing op mix, and a run that does
more cycles measures the same mix.

`p_eps` is drawn from [0.1, 0.9], split into equal strata so that each
cycle covers the window evenly; a fixed quarter of the ops instead draw
from the edge window [0.999, 1 - 1e-6]. Beta(2, 2) validate-dist and
crosscheck exit 3 there (ROADMAP item 2), so the edge-window validate-dist
and crosscheck slots are uniform ones and the Beta(2, 2) edge slot is a
sweep: no op of a workload is expected to fail, and a failed op is a
regression rather than a count that moves with the drawn prices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform", "beta22")
PAIRINGS = ("independent", "perfect")
P_WINDOW = (0.1, 0.9)
EDGE_WINDOW = (0.999, 1.0 - 1e-6)
ROUNDS = 5
DELTAS = (-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5)
EQ_CHECK = "equilibrium-crosscheck"
AGENT_KINDS = ("auction", "reserve", "repeat")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI subcommand or the library equilibrium check.

    params maps each option's dest name to its value; a grid is a
    (start, stop, count) tuple, passed to the CLI as start:stop:count.
    Every option is passed explicitly, so the artifact's config echo
    must equal `expected_echo()` without knowing the CLI's defaults.
    """

    kind: str
    params: dict = field(compare=False)
    fmt: str = "csv"
    workers: int = 1
    edge: bool = False

    @property
    def agents(self) -> int:
        """Agents this op simulates, from its arguments alone."""
        p = self.params
        if self.kind in AGENT_KINDS:
            return p["n_agents"] * p.get("rounds", 1)
        if self.kind == "sweep":
            return p["n_agents"] * p["p_eps_grid"][2]
        if self.kind == "deviation":
            return p["n_opponents"]
        if self.kind == "validate-dist":
            return p["n_samples"]
        if self.kind == "crosscheck":
            return p["v_p_grid"][2] * len(p["p_eps_list"])
        if self.kind == EQ_CHECK:
            return p["n_pairings"]
        raise ValueError(f"unknown op kind {self.kind!r}")

    @property
    def is_cli(self) -> bool:
        return self.kind != EQ_CHECK

    def argv(self, out) -> list[str]:
        args = [self.kind]
        for dest, value in self.params.items():
            args.append(f"--{dest.replace('_', '-')}={_argv_value(value)}")
        args += [f"--format={self.fmt}", f"--workers={self.workers}", f"--out={out}"]
        return args

    def expected_echo(self) -> dict:
        echo = {"subcommand": self.kind}
        for dest, value in self.params.items():
            if isinstance(value, tuple):
                value = [float(x) for x in np.linspace(*value)]
            elif isinstance(value, list):
                value = [float(x) for x in value]
            echo[dest] = value
        return echo

    def describe(self) -> str:
        p = self.params
        bits = [self.kind, p.get("family", "")]
        if "p_eps" in p:
            bits.append(f"p_eps={p['p_eps']:.6g}")
        bits.append(f"agents={self.agents}")
        if self.kind in AGENT_KINDS or self.kind == "sweep":
            bits.append(self.fmt)
        if self.workers != 1:
            bits.append(f"workers={self.workers}")
        return " ".join(b for b in bits if b)


def _argv_value(value) -> str:
    if isinstance(value, tuple):
        start, stop, count = value
        return f"{start!r}:{stop!r}:{count}"
    if isinstance(value, list):
        return ",".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Cycle templates. Family alternates with the position in the cycle and
# pairing with every second position, so both are fixed per slot.

# (kind, size slot, p_eps stratum or None for the edge window)
_AGENT_CYCLE = (
    ("auction", "big", 2),
    ("reserve", "mid", 0),
    ("repeat", "mid", 5),
    ("auction", "mid", None),
    ("reserve", "small", 3),
    ("repeat", "small", 1),
    ("auction", "small", 4),
    ("repeat", "small", None),
)
_AGENT_STRATA = 6

# (kind, sweep workers, p_eps stratum or None for the edge window);
# sweeps and crosschecks span the window with a grid instead of a stratum.
_EXPERIMENT_CYCLE = (
    ("sweep", 1, 0),
    ("sweep", 2, 0),
    ("deviation", 1, 0),
    ("validate-dist", 1, 2),
    ("crosscheck", 1, None),
    (EQ_CHECK, 1, 1),
    ("sweep", 2, 0),
    ("crosscheck", 1, 0),
    ("validate-dist", 1, None),
    ("deviation", 1, 3),
    (EQ_CHECK, 1, 4),
    ("sweep", 1, None),
)
_EXPERIMENT_STRATA = 5

# Why each workload exists is recorded in BENCHMARK.json. The sizes
# straddle a 2 MiB L2 (8 bytes per agent and column).
WORKLOADS = {
    "agent_csv": {"big": 1_000_000, "mid": 100_000, "small": 10_000, "fmt": "csv"},
    "agent_json": {"big": 300_000, "mid": 100_000, "small": 10_000, "fmt": "json"},
    "experiments": {},
}

SWEEP_AGENTS = 100_000
SWEEP_POINTS = 17
DEVIATION_OPPONENTS = 1_000_000
VALIDATE_SAMPLES = 1_000_000
VALIDATE_BINS = 40
CROSSCHECK_GRID = (0.0, 0.5, 1000)
CROSSCHECK_PRICES = 9
EQ_PAIRINGS = 100_000
EQ_BUCKET = (0.2, 0.01)


def _in_stratum(rng: random.Random, stratum: int | None, strata: int) -> float:
    if stratum is None:
        lo, hi = EDGE_WINDOW
        return lo + (hi - lo) * rng.random()
    lo, hi = P_WINDOW
    width = (hi - lo) / strata
    return lo + width * (stratum + rng.random())


def _spread(rng: random.Random, edge: bool, count: int) -> list[float]:
    """count stratified, increasing prices over the window."""
    lo, hi = EDGE_WINDOW if edge else P_WINDOW
    width = (hi - lo) / count
    return [lo + width * (k + rng.random()) for k in range(count)]


def _grid(rng: random.Random, edge: bool) -> tuple[float, float, int]:
    lo, hi = EDGE_WINDOW if edge else P_WINDOW
    tenth = (hi - lo) / 10
    return (lo + tenth * rng.random(), hi - tenth * rng.random(), SWEEP_POINTS)


def cycle_ops(workload: str, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle; the same (workload, seed, cycle) gives the same ops."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{cycle}")
    ops = []
    if workload == "experiments":
        for slot, (kind, workers, stratum) in enumerate(_EXPERIMENT_CYCLE):
            family = FAMILIES[slot % 2]
            edge = stratum is None
            op_seed = rng.getrandbits(32)
            if kind == "sweep":
                params = {
                    "family": family,
                    "p_eps_grid": _grid(rng, edge),
                    "n_agents": SWEEP_AGENTS,
                    "gamma": 1.0,
                    "seed": op_seed,
                }
            elif kind == "crosscheck":
                params = {
                    "family": family,
                    "v_p_grid": CROSSCHECK_GRID,
                    "p_eps_list": _spread(rng, edge, CROSSCHECK_PRICES),
                }
            else:
                p_eps = _in_stratum(rng, stratum, _EXPERIMENT_STRATA)
                if kind == "deviation":
                    params = {
                        "family": family,
                        "p_eps": p_eps,
                        "probe_v_d": 0.5,
                        "probe_v_p": 0.25,
                        "deltas": list(DELTAS),
                        "n_opponents": DEVIATION_OPPONENTS,
                        "seed": op_seed,
                    }
                elif kind == "validate-dist":
                    params = {
                        "family": family,
                        "p_eps": p_eps,
                        "n_samples": VALIDATE_SAMPLES,
                        "bins": VALIDATE_BINS,
                        "seed": op_seed,
                    }
                else:
                    params = {
                        "family": family,
                        "p_eps": p_eps,
                        "bucket_center": EQ_BUCKET[0],
                        "bucket_halfwidth": EQ_BUCKET[1],
                        "n_pairings": EQ_PAIRINGS,
                        "seed": op_seed,
                    }
            ops.append(Op(kind, params, workers=workers, edge=edge))
        return ops
    for slot, (kind, size, stratum) in enumerate(_AGENT_CYCLE):
        params = {
            "n_agents": spec[size],
            "p_eps": _in_stratum(rng, stratum, _AGENT_STRATA),
            "family": FAMILIES[slot % 2],
            "gamma": 1.0,
            "seed": rng.getrandbits(32),
        }
        if kind != "reserve":
            params["pairing"] = PAIRINGS[(slot // 2) % 2]
        if kind == "repeat":
            params["rounds"] = ROUNDS
        ops.append(Op(kind, params, fmt=spec["fmt"], edge=stratum is None))
    return ops


def column_sizes(workload: str) -> list[int]:
    """Distinct per-column element counts the workload's ops allocate."""
    if workload == "experiments":
        return sorted({SWEEP_AGENTS, DEVIATION_OPPONENTS, VALIDATE_SAMPLES, EQ_PAIRINGS})
    spec = WORKLOADS[workload]
    return sorted({spec["big"], spec["mid"], spec["small"]})


WARMUP = Op(
    "auction",
    {"n_agents": 1000, "p_eps": 0.5, "family": "uniform", "gamma": 1.0, "seed": 1,
     "pairing": "independent"},
)

# A small fixed op set, one op of each kind, whose artifact digests were
# recorded in digests.json; the share that still matches is the
# cli.digest_match_ratio counter.
DIGEST_OPS = (
    WARMUP,
    Op("auction", {"n_agents": 2000, "p_eps": 0.45, "family": "beta22", "gamma": 1.0,
                   "seed": 11, "pairing": "perfect"}, fmt="json"),
    Op("reserve", {"n_agents": 2000, "p_eps": 0.3, "family": "beta22", "gamma": 1.0,
                   "seed": 12}),
    Op("repeat", {"n_agents": 2000, "p_eps": 0.6, "family": "uniform", "gamma": 1.0,
                  "seed": 13, "pairing": "perfect", "rounds": 3}),
    Op("deviation", {"family": "beta22", "p_eps": 0.4, "probe_v_d": 0.5, "probe_v_p": 0.25,
                     "deltas": list(DELTAS), "n_opponents": 20_000, "seed": 14}),
    Op("sweep", {"family": "uniform", "p_eps_grid": (0.2, 0.8, 5), "n_agents": 5000,
                 "gamma": 1.0, "seed": 15}, workers=2),
    Op("validate-dist", {"family": "beta22", "p_eps": 0.25, "n_samples": 100_000,
                         "bins": 25, "seed": 16}),
    Op("crosscheck", {"family": "uniform", "v_p_grid": (0.0, 0.5, 50),
                      "p_eps_list": [0.25, 0.75]}),
    Op(EQ_CHECK, {"family": "uniform", "p_eps": 0.5, "bucket_center": 0.2,
                  "bucket_halfwidth": 0.01, "n_pairings": 20_000, "seed": 17}),
)
