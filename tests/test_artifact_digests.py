"""Byte identity of one small artifact per subcommand and format.

Each digest pins the exact bytes a subcommand writes for a fixed
specification. A change that leaves the math alone must leave every
digest unchanged; a change that alters bytes on purpose updates the
digest here and says why in CHANGES.md. The set covers both value
families, both pairing modes, CSV and JSON, a deviation grid with a
rejected zero bid (written as -0), a sweep whose grid points have one
participant, none, and a clearing price in the edge window near 1, and
a CSV long enough to be written in more than one block of rows.
"""

import hashlib
import json

import pytest

import sira.cli as cli

RUNS = {
    "auction-uniform-independent": [
        "auction", "--family", "uniform", "--pairing", "independent", "--n-agents",
        "300", "--p-eps", "0.4", "--seed", "11"
    ],
    "auction-beta22-perfect": [
        "auction", "--family", "beta22", "--pairing", "perfect", "--n-agents", "301",
        "--p-eps", "0.6", "--gamma", "2", "--seed", "12"
    ],
    "auction-uniform-blocks": [
        "auction", "--n-agents", "70001", "--p-eps", "0.5", "--seed", "19"
    ],
    "reserve-beta22": [
        "reserve", "--family", "beta22", "--n-agents", "300", "--p-eps", "0.3",
        "--seed", "13"
    ],
    "repeat-uniform-perfect": [
        "repeat", "--family", "uniform", "--pairing", "perfect", "--rounds", "3",
        "--n-agents", "101", "--p-eps", "0.5", "--seed", "14"
    ],
    "deviation-beta22": [
        "deviation", "--family", "beta22", "--p-eps", "0.5",
        "--deltas=-1,-0.5,-0.1,0.1,0.5,1", "--n-opponents", "2000", "--seed", "15"
    ],
    "sweep-uniform": [
        "sweep", "--family", "uniform", "--p-eps-grid", "0.1:0.9:5", "--n-agents",
        "2000", "--seed", "16", "--workers", "2"
    ],
    "sweep-beta22-sparse": [
        "sweep", "--family", "beta22", "--p-eps-grid", "0.7,0.8,0.999", "--n-agents",
        "20", "--seed", "17"
    ],
    "validate-dist-beta22": [
        "validate-dist", "--family", "beta22", "--p-eps", "0.4", "--n-samples", "5000",
        "--bins", "20", "--seed", "18"
    ],
    "crosscheck-uniform": [
        "crosscheck", "--family", "uniform", "--v-p-grid", "0:0.5:6", "--p-eps-list",
        "0.25,0.75"
    ],
}

DIGESTS = {
    "auction-beta22-perfect.csv":
        "15d1b3abcc0b212dd6dbdd70c5fcec67a4ef2892e7abfdcf837f79bf98e167a1",
    "auction-beta22-perfect.json":
        "de5a00659d9326ba60f45b8b4c4d0e502aafd6003ea73a077e50835042010425",
    "auction-uniform-blocks.csv":
        "084e9a89e366525dc8415d6f915425329835bc7074f59878b8a6986cdcffcc87",
    "auction-uniform-independent.csv":
        "11c4eb31a357dccc20fd494c95054be8b46afabb84cea8de59c92380f93f1116",
    "auction-uniform-independent.json":
        "a06a6f973521cc97cf944a9c868b7b18cb8e3458a10c3663a1f2dcb9f1b11a7d",
    "crosscheck-uniform.csv":
        "1d2bdaa1e8438a52f9ff5b50444e0fd320d2e8458f436d65d77c84ca8fd553c4",
    "crosscheck-uniform.json":
        "b0b8ea0c7eec26b21167dd1877bae4e9b442ee10399b6a8826a1dab0ed366a1b",
    "deviation-beta22.csv":
        "0b216d8f917eab01802535d5d2a6bebba579f145187233499407e6b539845b8e",
    "deviation-beta22.json":
        "295c595ddbbd85b2d8716e8bd3861f16bbcf8d4c898a67a97a8bc56caedc310a",
    "repeat-uniform-perfect.csv":
        "6c8ea352d98e9fe467d5fa7c791489046741101d9e3ebea27de62e13acfcb61f",
    "repeat-uniform-perfect.json":
        "f10cf63996062b337c69aa3499bda5df15bd2dd6a240720e874184d15f1d03c1",
    "reserve-beta22.csv":
        "46e8f6033d4bfa2afd80c59bf120c414e8150d2834413786e0f0cb99d22dfd2b",
    "reserve-beta22.json":
        "d588985f9af058381854962bd63abfb688094fe5f21dbd44ac9e3067b6921554",
    "sweep-beta22-sparse.csv":
        "294b481267604a987dda7d5ca8493c352ed3f94759f7c57d69873d06f1ce40d4",
    "sweep-beta22-sparse.json":
        "d209325b4abcaab5e29645d05e4ac3769288b3d044a82427f0e4b28b21fa2367",
    "sweep-uniform.csv":
        "63d62c9bdda2442512f567061e8b323b5eeb90fefb7ec7a24f5d342bf19a7d93",
    "sweep-uniform.json":
        "d6e4ff03fca51c455f337da865869d86451509d0f8ecd82dd4e19e208ee8fce6",
    "validate-dist-beta22.csv":
        "38822e00c4b942134bd477fc7d9be5e26af447e9ee4159afceef07833489a7e6",
    "validate-dist-beta22.json":
        "878bc0417a47384e4b67bd81fc7c368cc60ac592947741e04029e3e4397992d4",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_artifact_bytes_are_pinned(name, tmp_path):
    stem, fmt = name.rsplit(".", 1)
    out = tmp_path / name
    assert cli.main([*RUNS[stem], "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def test_undefined_statistics_are_strict_json_nulls(tmp_path):
    out = tmp_path / "sweep.json"
    argv = [*RUNS["sweep-beta22-sparse"], "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    results = json.loads(out.read_text(), parse_constant=refuse)["results"]
    assert None in results["sira_mean_bid_se"]
