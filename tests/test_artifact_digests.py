"""Byte identity of one small artifact per subcommand.

Each digest pins the exact bytes a subcommand writes for a fixed
specification. A change that leaves the math alone must leave every
digest unchanged; a change that alters bytes on purpose updates the
digest here and says why in CHANGES.md. The set covers both value
families, both pairing modes, CSV and JSON, a deviation grid with a
rejected zero bid (written as -0), and a sweep whose grid points have
one participant, none, and a clearing price in the edge window near 1.
"""

import hashlib

import pytest

import sira.cli as cli

ARTIFACTS = {
    "auction-uniform-independent.csv": (
        ["auction", "--family", "uniform", "--pairing", "independent",
         "--n-agents", "300", "--p-eps", "0.4", "--seed", "11"],
        "11c4eb31a357dccc20fd494c95054be8b46afabb84cea8de59c92380f93f1116",
    ),
    "auction-beta22-perfect.csv": (
        ["auction", "--family", "beta22", "--pairing", "perfect",
         "--n-agents", "301", "--p-eps", "0.6", "--gamma", "2", "--seed", "12"],
        "cbe89ccd75daf43f2601de2d178aab8088edfa73111d5d7cf58fdd1f6783b0ab",
    ),
    "reserve-beta22.csv": (
        ["reserve", "--family", "beta22", "--n-agents", "300", "--p-eps", "0.3",
         "--seed", "13"],
        "46e8f6033d4bfa2afd80c59bf120c414e8150d2834413786e0f0cb99d22dfd2b",
    ),
    "repeat-uniform-perfect.json": (
        ["repeat", "--family", "uniform", "--pairing", "perfect", "--rounds", "3",
         "--n-agents", "101", "--p-eps", "0.5", "--seed", "14"],
        "72045ee12a769f806aa1fae5b1c84d39a3a3b824b5f3be91331607c0f714126e",
    ),
    "deviation-beta22.csv": (
        ["deviation", "--family", "beta22", "--p-eps", "0.5",
         "--deltas=-1,-0.5,-0.1,0.1,0.5,1", "--n-opponents", "2000", "--seed", "15"],
        "0b216d8f917eab01802535d5d2a6bebba579f145187233499407e6b539845b8e",
    ),
    "sweep-uniform.csv": (
        ["sweep", "--family", "uniform", "--p-eps-grid", "0.1:0.9:5",
         "--n-agents", "2000", "--seed", "16", "--workers", "2"],
        "63d62c9bdda2442512f567061e8b323b5eeb90fefb7ec7a24f5d342bf19a7d93",
    ),
    "sweep-beta22-sparse.csv": (
        ["sweep", "--family", "beta22", "--p-eps-grid", "0.7,0.8,0.999",
         "--n-agents", "20", "--seed", "17"],
        "294b481267604a987dda7d5ca8493c352ed3f94759f7c57d69873d06f1ce40d4",
    ),
    "validate-dist-beta22.csv": (
        ["validate-dist", "--family", "beta22", "--p-eps", "0.4",
         "--n-samples", "5000", "--bins", "20", "--seed", "18"],
        "38822e00c4b942134bd477fc7d9be5e26af447e9ee4159afceef07833489a7e6",
    ),
    "crosscheck-uniform.csv": (
        ["crosscheck", "--family", "uniform", "--v-p-grid", "0:0.5:6",
         "--p-eps-list", "0.25,0.75"],
        "6b483f868c58abacb474f53884b435f0689be512f7657060698ae4854448a7f4",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_bytes_are_pinned(name, tmp_path):
    argv, digest = ARTIFACTS[name]
    out = tmp_path / name
    fmt = name.rsplit(".", 1)[1]
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
