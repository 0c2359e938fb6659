"""The benchmark's independent recount, run on its digest set and over
the accepted domain.

`bench/checks.py` re-derives every artifact from the op's own arguments
and from identities between its columns, without comparing bytes. Here
it checks each op of `bench/ops.py` `DIGEST_OPS`: every CLI op through
`cli.main` in its own format, each per-agent op in the other format as
well, and the library `equilibrium_crosscheck` op with its result fields
built the way `bench/worker.py` builds them. Two corrupted artifacts,
with `bid` overwritten by `bid_paid`, must fail the recount, so a
checker that accepts everything cannot pass here.

One Hypothesis test per subcommand then draws every option that the
subcommand declares in `cli._COMMANDS` from `DOMAIN`, one entry per
option name, so an option declared without an entry fails its test.
Each drawn op must exit 0 and pass `check_artifact`. The domain is the
accepted one except where the checker is narrower; lifting these limits
is the benchmark half of ROADMAP item 11.

- gamma is 1: the checker's safety identity assumes it.
- sweep, deviation, validate-dist and crosscheck write CSV only, as the
  checker reads no JSON of theirs (see `test_cli.py` for their JSON).
- Grids are (start, stop, count) with distinct 9-digit points, rising
  for crosscheck: the checker rebuilds them with `np.linspace`, looks
  the sweep's best p_eps up among the printed points, and wants bids to
  rise along v_p.
- validate-dist draws at least 1e5 samples, so the checker's fixed
  cdf_sup_error < 0.01 fails by chance with probability at most
  2 exp(-20) (Dvoretzky-Kiefer-Wolfowitz).
- The checker reads 9-digit CSV cells. Its se_participation recount
  from a printed rate r errs by about 2.5e-10 / (1 - r), beyond its
  relative 1e-7 once fewer than one agent in 400 stays out, so n_agents
  is at most 300. A bin center exactly one width from p_eps / 2
  (p_eps * bins a half-integer) can print on the other side of
  validate-dist's pdf_sup_error cut, so that pair is not drawn. A
  deviated bid within rounding of p_eps prints as p_eps whether or not
  deviation rejected it, so every delta is 0 or at least 1e-8 in size.

The library `equilibrium_crosscheck` has no subcommand and stays out:
its |z| check fails where bids reach the cap (ROADMAP item 3). Last,
the digest set runs under `bench/spans.py`'s tracer, so a traced name
that sira no longer binds fails here, and tracing must move no byte.
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sira
import sira.cli as cli
from sira.experiments import equilibrium_crosscheck
from sira.strategy import P_EPS_MAX, P_EPS_MIN
from sira.value_model import ValueFamily

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402

_OTHER_FORMAT = {"csv": "json", "json": "csv"}
DIGEST_CLI_OPS = [op for op in ops.DIGEST_OPS if op.is_cli]
CLI_CASES = DIGEST_CLI_OPS + [
    dataclasses.replace(op, fmt=_OTHER_FORMAT[op.fmt])
    for op in ops.DIGEST_OPS
    if op.kind in ops.AGENT_KINDS
]
(EQ_OP,) = [op for op in ops.DIGEST_OPS if not op.is_cli]


def _run(op, tmp_path):
    path = tmp_path / f"artifact.{op.fmt}"
    assert cli.main(op.argv(path)) == cli.EXIT_OK
    return path


def _case_id(op):
    seed = op.params.get("seed")
    return f"{op.kind}-{op.fmt}" + ("" if seed is None else f"-seed{seed}")


@pytest.mark.parametrize("op", CLI_CASES, ids=_case_id)
def test_digest_set_artifact_passes_the_recount(op, tmp_path):
    checks.check_artifact(op, _run(op, tmp_path), sira.__version__)


def test_digest_set_equilibrium_crosscheck_passes_the_recount():
    p = EQ_OP.params
    result = equilibrium_crosscheck(
        ValueFamily(p["family"]), p["p_eps"], p["bucket_center"], p["bucket_halfwidth"],
        p["n_pairings"], p["seed"],
    )
    fields = {k: getattr(result, k) for k in checks.EQ_FIELDS}
    fields["family"] = result.family.value
    checks.check_equilibrium(EQ_OP, json.loads(json.dumps(fields, sort_keys=True)))


def _bid_written_as_bid_paid(path):
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        agents = payload["results"]["agents"]
        agents["bid"] = agents["bid_paid"]
        path.write_text(json.dumps(payload))
        return
    lines = path.read_text().splitlines(keepends=True)
    n_header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = list(csv.reader(lines[n_header:]))
    bid, bid_paid = rows[0].index("bid"), rows[0].index("bid_paid")
    for row in rows[1:]:
        row[bid] = row[bid_paid]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines[:n_header])
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_tracing_moves_no_byte_of_the_digest_set(tmp_path):
    untraced = [_run(op, tmp_path).read_bytes() for op in DIGEST_CLI_OPS]
    tracer, traced, span_counts = spans.Tracer(), [], []
    try:
        tracer.install()  # fails on a traced name that sira no longer binds
        for op in DIGEST_CLI_OPS:
            traced.append(_run(op, tmp_path).read_bytes())
            span_counts.append(len(tracer.spans))
    finally:
        tracer.uninstall()
    assert all(a < b for a, b in zip([0, *span_counts], span_counts))  # spans for every op
    assert traced == untraced


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_recount_rejects_bid_written_as_bid_paid(fmt, tmp_path):
    op = dataclasses.replace(ops.WARMUP, fmt=fmt)
    path = _run(op, tmp_path)
    checks.check_artifact(op, path, sira.__version__)
    _bid_written_as_bid_paid(path)
    with pytest.raises(checks.CheckError):
        checks.check_artifact(op, path, sira.__version__)


# ---------------------------------------------------------------------------
# Every accepted op, within the checker's limits (see the module docstring)

P_EPS = st.floats(P_EPS_MIN, P_EPS_MAX) | st.sampled_from([P_EPS_MIN, P_EPS_MAX])


def _grid(points, max_count, ascending=False):
    """(start, stop, count) grids between two drawn points that print distinct."""
    ends = st.lists(points, min_size=2, max_size=2, unique=True).map(
        sorted if ascending else list)
    return st.tuples(ends, st.integers(2, max_count)).map(lambda g: (*g[0], g[1])).filter(
        lambda g: len({format(x, ".9g") for x in np.linspace(*g)}) == g[2])


# One entry per option name. An entry that is not a strategy is bounded by
# options drawn before it and gives the strategy from them.
DOMAIN = {
    "family": st.sampled_from(ops.FAMILIES),
    "p_eps": P_EPS,
    "gamma": st.just(1.0),
    "seed": st.integers(0, 2**64 - 1),
    "n_agents": st.integers(2, 300),
    "pairing": st.sampled_from(ops.PAIRINGS),
    "rounds": st.integers(1, 4),
    "probe_v_d": st.floats(0.0, 1.0),
    # A valid agent: 0 <= probe_v_p <= probe_v_d and probe_v_d + probe_v_p <= 1.
    "probe_v_p": lambda drawn: st.floats(
        0.0, min(drawn["probe_v_d"], 1.0 - drawn["probe_v_d"])),
    "deltas": st.lists(st.just(0.0) | st.floats(1e-8, 1.0) | st.floats(-1.0, -1e-8),
                       max_size=6),
    "n_opponents": st.integers(2, 5000),
    "p_eps_grid": _grid(P_EPS, 6),
    "n_samples": st.integers(100_000, 150_000),
    "bins": lambda drawn: st.integers(10, 200).filter(
        lambda bins: abs(drawn["p_eps"] * bins % 1 - 0.5) > 1e-6),
    "v_p_grid": _grid(st.floats(0.0, 0.5), 30, ascending=True),
    "p_eps_list": st.lists(P_EPS, min_size=1, max_size=3),
}


@pytest.mark.parametrize("kind", list(cli._COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_accepted_op_passes_the_recount(kind, data, tmp_path_factory):
    params = {}
    for opt in cli._COMMANDS[kind].options:
        domain = DOMAIN[opt.dest]
        if not isinstance(domain, st.SearchStrategy):
            domain = domain(params)
        params[opt.dest] = data.draw(domain, label=opt.dest)
    formats = ("csv", "json") if kind in ops.AGENT_KINDS else ("csv",)
    op = ops.Op(kind, params, fmt=data.draw(st.sampled_from(formats), label="format"),
                workers=data.draw(st.integers(1, 2), label="workers"))
    path = tmp_path_factory.mktemp("op") / f"artifact.{op.fmt}"
    assert cli.main(op.argv(path)) == cli.EXIT_OK
    checks.check_artifact(op, path, sira.__version__)
