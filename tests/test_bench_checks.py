"""The benchmark's independent recount, run on its fixed digest set.

`bench/checks.py` re-derives every artifact from the op's own arguments
and from identities between its columns, without comparing bytes. Here
it checks each op of `bench/ops.py` `DIGEST_OPS`: every CLI op through
`cli.main` in its own format, each per-agent op in the other format as
well, and the library `equilibrium_crosscheck` op with its result fields
built the way `bench/worker.py` builds them. Two corrupted artifacts,
with `bid` overwritten by `bid_paid`, must fail the recount, so a
checker that accepts everything cannot pass here.

The checker's own limits stay as they are: its safety identity assumes
gamma 1, and it reads only the CSV of sweep, deviation, validate-dist
and crosscheck. Lifting them is the benchmark half of ROADMAP item 11.
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

import sira
import sira.cli as cli
from sira.experiments import equilibrium_crosscheck
from sira.value_model import ValueFamily

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import ops  # noqa: E402

_OTHER_FORMAT = {"csv": "json", "json": "csv"}
CLI_CASES = [op for op in ops.DIGEST_OPS if op.is_cli] + [
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_recount_rejects_bid_written_as_bid_paid(fmt, tmp_path):
    op = dataclasses.replace(ops.WARMUP, fmt=fmt)
    path = _run(op, tmp_path)
    checks.check_artifact(op, path, sira.__version__)
    _bid_written_as_bid_paid(path)
    with pytest.raises(checks.CheckError):
        checks.check_artifact(op, path, sira.__version__)
