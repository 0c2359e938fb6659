"""Byte identity of one small artifact per subcommand and format.

Each digest pins the exact bytes a subcommand writes for a fixed
specification. A change that leaves the math alone must leave every
digest unchanged; a change that alters bytes on purpose updates the
digest here and says why in CHANGES.md. The set covers both value
families, both pairing modes, CSV and JSON, a perfect matching with an
odd participant count (41 of 101, so one agent is left out of the
pairs in every round), a deviation grid with a rejected zero bid
(written as -0), a sweep whose grid points have one participant, none,
and a clearing price in the edge window near 1, and per-agent CSV and
JSON long enough to be written in more than one block of rows,
including a two-round JSON whose per-round arrays are written row by
row. Two more multi-block CSVs pin cells of exactly 1 and cells
above 1: a Beta(2, 2) auction in the edge window, whose bids are capped
at 1 below raw bids above it, and a five-round repeat, whose realized
utilities exceed 1. Two crosschecks at the benchmark's size (1000
premium values by 9 prices) pin the quadrature route: Beta(2, 2) across
[0.1, 0.9] and uniform across the edge window [0.999, 1 - 1e-6]. The
premium distribution's branch split is pinned on the paths that
evaluate it over a population: a uniform deviation, a uniform validation
at a clearing price in the edge window, and a 17-point Beta(2, 2) sweep
whose points run in two threads. A deviation and a validation per family
at 140001 draws pin the population kernels across more than two blocks
of value_model.BLOCK elements.
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
    "repeat-uniform-blocks": [
        "repeat", "--rounds", "2", "--n-agents", "70001", "--p-eps", "0.5", "--seed", "20"
    ],
    "auction-beta22-edge-blocks": [
        "auction", "--family", "beta22", "--n-agents", "70001", "--p-eps", "0.9995",
        "--seed", "29"
    ],
    "repeat-uniform-5-rounds-blocks": [
        "repeat", "--rounds", "5", "--n-agents", "70001", "--p-eps", "0.5", "--seed", "30"
    ],
    "reserve-beta22": [
        "reserve", "--family", "beta22", "--n-agents", "300", "--p-eps", "0.3",
        "--seed", "13"
    ],
    "repeat-uniform-perfect": [
        "repeat", "--family", "uniform", "--pairing", "perfect", "--rounds", "3",
        "--n-agents", "101", "--p-eps", "0.5", "--seed", "14"
    ],
    "repeat-uniform-perfect-odd": [
        "repeat", "--family", "uniform", "--pairing", "perfect", "--rounds", "3",
        "--n-agents", "101", "--p-eps", "0.5", "--seed", "1"
    ],
    "deviation-uniform": [
        "deviation", "--family", "uniform", "--n-opponents", "5000", "--seed", "23"
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
    "sweep-beta22-workers": [
        "sweep", "--family", "beta22", "--p-eps-grid", "0.1:0.9:17", "--n-agents",
        "2000", "--seed", "25", "--workers", "2"
    ],
    "deviation-uniform-blocks": [
        "deviation", "--family", "uniform", "--n-opponents", "140001", "--seed", "39"
    ],
    "deviation-beta22-blocks": [
        "deviation", "--family", "beta22", "--p-eps", "0.3",
        "--deltas=-1,-0.5,-0.01,0.01,0.5,1", "--n-opponents", "140001", "--seed", "40"
    ],
    "validate-dist-uniform-blocks": [
        "validate-dist", "--family", "uniform", "--p-eps", "0.6", "--n-samples",
        "140001", "--bins", "30", "--seed", "41"
    ],
    "validate-dist-beta22-blocks": [
        "validate-dist", "--family", "beta22", "--p-eps", "0.4", "--n-samples",
        "140001", "--bins", "30", "--seed", "42"
    ],
    "validate-dist-uniform-edge": [
        "validate-dist", "--family", "uniform", "--p-eps", "0.9995", "--n-samples",
        "5000", "--bins", "20", "--seed", "24"
    ],
    "validate-dist-beta22": [
        "validate-dist", "--family", "beta22", "--p-eps", "0.4", "--n-samples", "5000",
        "--bins", "20", "--seed", "18"
    ],
    "crosscheck-uniform": [
        "crosscheck", "--family", "uniform", "--v-p-grid", "0:0.5:6", "--p-eps-list",
        "0.25,0.75"
    ],
    "crosscheck-beta22-bench": [
        "crosscheck", "--family", "beta22", "--v-p-grid", "0:0.5:1000", "--p-eps-list",
        "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
    ],
    "crosscheck-uniform-edge": [
        "crosscheck", "--family", "uniform", "--v-p-grid", "0:0.5:1000", "--p-eps-list",
        "0.999,0.9992,0.9995,0.9997,0.9999,0.99995,0.99999,0.999995,0.999999"
    ],
}

DIGESTS = {
    "auction-beta22-edge-blocks.csv":
        "0ec6651ffb09e29496eb74463fe2a68e88a6e95fefb7b058a7c5e3fc178bccbb",
    "auction-beta22-perfect.csv":
        "15d1b3abcc0b212dd6dbdd70c5fcec67a4ef2892e7abfdcf837f79bf98e167a1",
    "auction-beta22-perfect.json":
        "235a3ce4e003d048a2fea2f450875ce840ae5bae697435eb54cc738645ddb5e5",
    "auction-uniform-blocks.csv":
        "084e9a89e366525dc8415d6f915425329835bc7074f59878b8a6986cdcffcc87",
    "auction-uniform-blocks.json":
        "dd55579238b7012ea6a7e3ab8d0acb0063d12a9ab0be78e3f9039f794cbe2bc4",
    "auction-uniform-independent.csv":
        "11c4eb31a357dccc20fd494c95054be8b46afabb84cea8de59c92380f93f1116",
    "auction-uniform-independent.json":
        "6239108649f7e9362dd06a132632c91e46c0c8cee7949c72f30d97382da0ddba",
    "crosscheck-beta22-bench.csv":
        "d681b3fc0370637e63dc72019206297293a1f37b5b6389a5fcb07c7ff920a3ee",
    "crosscheck-beta22-bench.json":
        "3e5872c595f9cc4d55938e4a38975adc0d17d986727af1f93accff43d4bc4b9a",
    "crosscheck-uniform-edge.csv":
        "db2121fde190e8e42ea31318f1fa21ae41870c643b6d8f652efdc5f5417ee643",
    "crosscheck-uniform-edge.json":
        "1c4eab0c806adc040d4d87f0d2d57d29aac597a77bbf1093bfbee0a029ca17cb",
    "crosscheck-uniform.csv":
        "1d2bdaa1e8438a52f9ff5b50444e0fd320d2e8458f436d65d77c84ca8fd553c4",
    "crosscheck-uniform.json":
        "f70bad123bf9e5518445f515519e399969a8e68a2d36a4ea2453fc9691b37dd4",
    "deviation-beta22-blocks.csv":
        "cdb83bffaab6a457a36c76312dd444c5fc5856a185a23415b7235eed814a5e11",
    "deviation-beta22-blocks.json":
        "2d47298cafc804f429759011d88640c34cbceb3f5ab3f1f199f67d602a85107a",
    "deviation-beta22.csv":
        "0b216d8f917eab01802535d5d2a6bebba579f145187233499407e6b539845b8e",
    "deviation-beta22.json":
        "14ade19221dd650fc31f6598354892e60e219170916c3bf6ab095a19f6ecfe93",
    "deviation-uniform-blocks.csv":
        "180115802699ed197a062dbede44eb731780714efff250ea019f7189b49bdf63",
    "deviation-uniform-blocks.json":
        "beea35a15336a92e04376649a968b2f62df25829f497727954e1f35a56ab4c9a",
    "deviation-uniform.json":
        "8f0407ad3919a69a0b929b3494fba8915ccb88b05c789d3101a304aaaec56135",
    "repeat-uniform-5-rounds-blocks.csv":
        "fa8e3b33433a4332ef0a54a272ed1db8f9734434fa8c70299dc06d012328fd9c",
    "repeat-uniform-blocks.json":
        "a5c610b0b1fe5ad67a151e6c16c315fc07869d0d8403d93b955c3c192e40ff15",
    "repeat-uniform-perfect-odd.csv":
        "399c3c7d7b2f54489cb62c74c12397c67267bfa4f80933a0dd2bc953fd632fc3",
    "repeat-uniform-perfect-odd.json":
        "550738617ff4dd5006ee8d8d8452acb72fbfb752c2f93a3cb85f1e99ff05e812",
    "repeat-uniform-perfect.csv":
        "6c8ea352d98e9fe467d5fa7c791489046741101d9e3ebea27de62e13acfcb61f",
    "repeat-uniform-perfect.json":
        "51ab6b1a083e519f8a13fa50cfaa102a025fda1209c6a5af1979d438c95d18da",
    "reserve-beta22.csv":
        "46e8f6033d4bfa2afd80c59bf120c414e8150d2834413786e0f0cb99d22dfd2b",
    "reserve-beta22.json":
        "abc0d1751140d196706c512b6b34f2a32f17a2ce4aad5c987590eeb738cba98d",
    "sweep-beta22-sparse.csv":
        "331e67fec85e4940554b9f8ed1c2a683159cb0fefc7d8b06e287fa1dc5332b8c",
    "sweep-beta22-sparse.json":
        "a7ea461cbd2580ee8a074dae2bb6c7305e5390f1d1fcb30417a7a9214366597d",
    "sweep-beta22-workers.json":
        "a23d43911817b1cb93535f20109e5ca6e0edcf307e2d649943ce41f7b0dd8e92",
    "sweep-uniform.csv":
        "e39f67b46cc87b439367d499d5e94b4f4340158e407c7d788a313299dba17d7d",
    "sweep-uniform.json":
        "fc99cf94f5a248d56a32637becfaf36b4058aa5fd64a7fa393623731f65eff1d",
    "validate-dist-beta22-blocks.csv":
        "0fbfdc01aa5febaff04bc680f6a751d69ea6a641670400e1a3189c107c26d85a",
    "validate-dist-beta22-blocks.json":
        "c4e4abd32afad4de2e121939ec1b160051f30daafbe66d200004c4fa824d705f",
    "validate-dist-beta22.csv":
        "38822e00c4b942134bd477fc7d9be5e26af447e9ee4159afceef07833489a7e6",
    "validate-dist-beta22.json":
        "c5e53ff21ef237118c3dd2f4fe6310ea3da3df6425051f51f704bff7d41b916e",
    "validate-dist-uniform-blocks.csv":
        "d9d360b7727c1f702cf1692ab5870cb69228442097012b5431a334907e29e1f8",
    "validate-dist-uniform-blocks.json":
        "f424b0c30b8e65cffa522480db89922a7a42188cdca8f718b7d0d3d6484a49bf",
    "validate-dist-uniform-edge.json":
        "c643b1e5a5d7247746fc1ec5124e0296378fd37a1dc35eba4a056793eb20188f",
}

# Digests of the JSON artifacts as the indented writer wrote them
# (`json.dumps(payload, sort_keys=True, indent=2)` plus a newline). The
# compact writer changed only whitespace, so re-indenting its output must
# give these bytes again. Only per-agent artifacts are listed: the
# experiments' JSON results have since become their CSV tables.
INDENTED_DIGESTS = {
    "auction-beta22-perfect.json":
        "de5a00659d9326ba60f45b8b4c4d0e502aafd6003ea73a077e50835042010425",
    "auction-uniform-independent.json":
        "a06a6f973521cc97cf944a9c868b7b18cb8e3458a10c3663a1f2dcb9f1b11a7d",
    "repeat-uniform-perfect.json":
        "f10cf63996062b337c69aa3499bda5df15bd2dd6a240720e874184d15f1d03c1",
    "reserve-beta22.json":
        "d588985f9af058381854962bd63abfb688094fe5f21dbd44ac9e3067b6921554",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_artifact_bytes_are_pinned(name, tmp_path):
    stem, fmt = name.rsplit(".", 1)
    out = tmp_path / name
    assert cli.main([*RUNS[stem], "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INDENTED_DIGESTS))
def test_json_artifacts_differ_from_indented_ones_only_in_whitespace(name, tmp_path):
    out = tmp_path / name
    argv = [*RUNS[name.removesuffix(".json")], "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    indented = json.dumps(json.loads(out.read_bytes()), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == INDENTED_DIGESTS[name]


def test_undefined_statistics_are_strict_json_nulls(tmp_path):
    out = tmp_path / "sweep.json"
    argv = [*RUNS["sweep-beta22-sparse"], "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    results = json.loads(out.read_text(), parse_constant=refuse)["results"]
    assert None in results["se_bid"]
