"""Tests for the command-line interface: parsing, precedence, output
formats, exit codes, and byte-level determinism."""

import json

import numpy as np
import pytest

import sira.cli as cli
from sira.errors import ConfigError, NumericalError


def _run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# Value converters


def test_grid_converter_linspace():
    grid = cli._to_grid("0.1:0.9:17")
    assert len(grid) == 17
    np.testing.assert_allclose(grid, np.linspace(0.1, 0.9, 17))


def test_grid_converter_comma_list():
    assert cli._to_grid("0.25,0.5,0.75") == [0.25, 0.5, 0.75]


def test_grid_converter_rejects_garbage():
    with pytest.raises(ConfigError):
        cli._to_grid("0.1:0.9")
    with pytest.raises(ConfigError):
        cli._to_grid("0.1:0.9:0")
    with pytest.raises(ConfigError):
        cli._to_grid("abc")


def test_scalar_converters_reject_garbage():
    for bad in ("1.5", 1000.7, float("inf"), float("nan"), True):
        with pytest.raises(ConfigError):
            cli._to_int(bad)
    with pytest.raises(ConfigError):
        cli._to_float("one")
    with pytest.raises(ConfigError):
        cli._to_family("gamma")
    with pytest.raises(ConfigError):
        cli._to_pairing("round-robin")


# ---------------------------------------------------------------------------
# Run-spec resolution


def test_parse_defaults_fill_in(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    spec = cli.parse_run_spec(["auction"])
    assert spec.subcommand == "auction"
    assert spec.params["n_agents"] == 100_000
    assert spec.params["p_eps"] == 0.5
    assert spec.params["family"] == "uniform"
    assert spec.params["seed"] is not None  # drawn fresh when omitted
    assert spec.out_path == tmp_path / "auction.csv"
    assert spec.fmt == "csv"
    assert spec.workers == 1


def test_flag_beats_config_file_beats_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "n_agents": 50}))
    spec = cli.parse_run_spec(
        ["auction", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "o.csv")]
    )
    assert spec.params["seed"] == 7  # flag wins
    assert spec.params["n_agents"] == 50  # file fills the gap
    assert spec.params["p_eps"] == 0.5  # default backstop


def test_config_file_unknown_field_is_named(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_agent": 50}))
    with pytest.raises(ConfigError, match="n_agent"):
        cli.parse_run_spec(["auction", "--config", str(cfg)])


def test_config_file_integers_must_be_integral(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_agents": 1000.7}))
    with pytest.raises(ConfigError, match="--n-agents"):
        cli.parse_run_spec(["auction", "--config", str(cfg)])
    cfg.write_text(json.dumps({"n_agents": 1000.0}))
    assert cli.parse_run_spec(["auction", "--config", str(cfg)]).params["n_agents"] == 1000


def test_config_file_subcommand_mismatch(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"subcommand": "sweep"}))
    with pytest.raises(ConfigError):
        cli.parse_run_spec(["auction", "--config", str(cfg)])


def test_config_echo_excludes_output_plumbing(tmp_path):
    spec = cli.parse_run_spec(
        ["auction", "--seed", "3", "--out", str(tmp_path / "a.csv"), "--workers", "4"]
    )
    echo = spec.config_echo
    assert echo["subcommand"] == "auction"
    assert echo["seed"] == 3
    for hidden in ("out", "format", "fmt", "workers"):
        assert hidden not in echo


# ---------------------------------------------------------------------------
# Exit codes


def test_bad_p_eps_exits_usage(tmp_path, capsys):
    code = _run(
        ["auction", "--p-eps", "1.5", "--seed", "1", "--out", str(tmp_path / "a.csv")]
    )
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "p_eps" in err  # the offending field is named


def test_parser_error_returns_usage_in_process(capsys):
    # A missing option value must come back as an exit code, not SystemExit.
    assert _run(["auction", "--n-agents"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n-agents" in err
    assert _run(["no-such-command"]) == cli.EXIT_USAGE
    assert _run(["--version"]) == cli.EXIT_OK


def test_unwritable_output_exits_io(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "a.csv"
    code = _run(
        ["auction", "--n-agents", "10", "--seed", "1", "--out", str(missing_dir)]
    )
    assert code == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_numerical_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def boom(_spec):
        raise NumericalError("synthetic non-convergence")

    monkeypatch.setitem(cli._HANDLERS, "auction", boom)
    code = _run(["auction", "--seed", "1", "--out", str(tmp_path / "a.csv")])
    assert code == cli.EXIT_NUMERIC
    assert "numerical error" in capsys.readouterr().err


def test_success_reports_path(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = _run(["auction", "--n-agents", "20", "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert f"wrote {out}" in capsys.readouterr().out
    assert out.exists()


# ---------------------------------------------------------------------------
# Output contents


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_auction_csv_layout(tmp_path):
    out = tmp_path / "a.csv"
    assert _run(["auction", "--n-agents", "30", "--seed", "9", "--out", str(out)]) == 0
    lines = _read_lines(out)
    assert lines[0] == f"# sira {cli.__version__}"
    assert lines[1].startswith("# config {")
    echoed = json.loads(lines[1][len("# config ") :])
    assert echoed["subcommand"] == "auction"
    assert echoed["seed"] == 9
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx].split(",")[:4] == [
        "agent",
        "total_value",
        "scaling_factor",
        "deployment_value",
    ]
    assert len(lines) == header_idx + 1 + 30


def test_sweep_csv_contract_columns(tmp_path):
    out = tmp_path / "s.csv"
    code = _run(
        [
            "sweep",
            "--p-eps-grid", "0.3,0.5,0.7",
            "--n-agents", "2000",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == (
        "p_eps,mechanism,participation_rate,mean_bid,se_participation,se_bid"
    )
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    assert len(rows) == 6  # two mechanisms per grid point
    assert {r[1] for r in rows} == {"reserve", "sira"}


def test_deviation_csv_contract_columns(tmp_path):
    out = tmp_path / "d.csv"
    code = _run(
        [
            "deviation",
            "--deltas=-0.25,0,0.25",
            "--n-opponents", "2000",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx].split(",")[:4] == [
        "delta",
        "mean_utility",
        "std_err",
        "n_samples",
    ]
    assert len(lines[header_idx + 1 :]) == 3


def test_validate_dist_csv_columns(tmp_path):
    out = tmp_path / "v.csv"
    code = _run(
        [
            "validate-dist",
            "--n-samples", "20000",
            "--bins", "15",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == (
        "bin_center,bin_right_edge,empirical_pdf,analytic_pdf,empirical_cdf,analytic_cdf"
    )
    assert len(lines[header_idx + 1 :]) == 15


def test_crosscheck_csv_columns(tmp_path):
    out = tmp_path / "x.csv"
    code = _run(
        [
            "crosscheck",
            "--family", "beta22",
            "--v-p-grid", "0:0.5:9",
            "--p-eps-list", "0.25,0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == (
        "family,p_eps,v_p,closed_form_bid,quadrature_bid,abs_diff"
    )
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    assert len(rows) == 2 * 9  # one row per (p_eps, v_p) pair
    assert all(r[0] == "beta22" for r in rows)


@pytest.mark.parametrize("family", ["uniform", "beta22"])
@pytest.mark.parametrize("p_eps", ["0.999", "0.9995", "0.99999", "0.999999"])
def test_edge_window_clearing_prices_run_to_success(family, p_eps, tmp_path):
    # Near p_eps = 1 the truncation mass of Beta(2, 2) falls to ~3e-12, and
    # the upper branch of the premium distribution is [p_eps / 2, 1/2].
    dist_out = tmp_path / "v.json"
    code = _run(
        [
            "validate-dist",
            "--family", family,
            "--p-eps", p_eps,
            "--n-samples", "20000",
            "--bins", "20",
            "--seed", "3",
            "--format", "json",
            "--out", str(dist_out),
        ]
    )
    assert code == cli.EXIT_OK
    assert json.loads(dist_out.read_text(encoding="utf-8"))["results"]["ks_distance"] < 0.02
    check_out = tmp_path / "x.json"
    code = _run(
        [
            "crosscheck",
            "--family", family,
            "--v-p-grid", "0,0.2,0.4999,0.4999996,0.4999999,0.5",
            "--p-eps-list", p_eps,
            "--format", "json",
            "--out", str(check_out),
        ]
    )
    assert code == cli.EXIT_OK
    assert json.loads(check_out.read_text(encoding="utf-8"))["results"]["max_abs_diff"] <= 1e-12


def test_repeat_json_round_trip(tmp_path):
    out = tmp_path / "r.json"
    code = _run(
        [
            "repeat",
            "--n-agents", "40",
            "--rounds", "3",
            "--seed", "11",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["tool"] == "sira"
    assert doc["version"] == cli.__version__
    assert doc["config"]["rounds"] == 3
    assert doc["config"]["subcommand"] == "repeat"
    assert "out" not in doc["config"]
    assert "workers" not in doc["config"]
    assert len(doc["results"]["agents"]["bid"]) == 40
    assert "participation_rate" in doc["summary"]


def test_reserve_csv_runs(tmp_path):
    out = tmp_path / "rt.csv"
    assert _run(["reserve", "--n-agents", "25", "--seed", "3", "--out", str(out)]) == 0
    lines = _read_lines(out)
    assert any("participation_rate" in ln for ln in lines if ln.startswith("#"))


# ---------------------------------------------------------------------------
# Determinism


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = _run(
            ["auction", "--n-agents", "500", "--seed", "21", "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["sweep", "--p-eps-grid", "0.3,0.5,0.7", "--n-agents", "3000", "--seed", "8"]
    assert _run(base + ["--out", str(a), "--workers", "1"]) == 0
    assert _run(base + ["--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["auction", "--n-agents", "100", "--seed", "1", "--out", str(a)]) == 0
    assert _run(["auction", "--n-agents", "100", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
