"""Tests for the command-line interface: parsing, precedence, output
formats, exit codes, and byte-level determinism."""

import dataclasses
import errno
import itertools
import json
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sira.cli as cli
from sira import mechanism
from sira.errors import ConfigError, NumericalError
from sira.experiments import deviation_sweep
from sira.mechanism import PairingMode
from sira.value_model import ValueFamily


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


# ---------------------------------------------------------------------------
# Run-spec resolution


def test_parse_defaults_fill_in(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    spec = cli.parse_run_spec(["auction"])
    assert spec.subcommand == "auction"
    assert spec.params["n_agents"] == 100_000
    assert spec.params["p_eps"] == 0.5
    assert spec.params["family"] is ValueFamily.UNIFORM
    assert spec.params["pairing"] is PairingMode.INDEPENDENT_OPPONENT
    assert spec.config_echo["family"] == "uniform"
    assert spec.config_echo["pairing"] == "independent"
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


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b"[1, 2]"],
    ids=["not-utf8", "nested-too-deep", "not-an-object"],
)
def test_unreadable_config_file_exits_usage(content, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content)
    argv = ["auction", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]
    assert _run(argv) == cli.EXIT_USAGE
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--family", "gamma"), ("--pairing", "round-robin")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_choice_exits_usage_naming_the_flag(flag, value, source, tmp_path, capsys):
    argv = ["auction", "--seed", "1", "--out", str(tmp_path / "a.csv")]
    if source == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        argv += ["--config", str(cfg)]
    assert _run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and value in err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize(
    "subcommand, content, message",
    [
        ("auction", {"p_eps": True}, "--p-eps: expected a number, got True"),
        ("deviation", {"deltas": 0.5}, "--deltas: expected a comma-separated list"),
    ],
    ids=["bool-number", "scalar-list"],
)
def test_ill_typed_config_file_exits_usage(subcommand, content, message, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(content))
    argv = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "a.csv")]
    assert _run(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_zero_workers_exits_usage(tmp_path, capsys):
    argv = ["sweep", "--workers", "0", "--out", str(tmp_path / "s.csv")]
    assert _run(argv) == cli.EXIT_USAGE
    assert "--workers: expected a positive integer, got 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_config_file_subcommand_mismatch(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"subcommand": "sweep"}))
    with pytest.raises(ConfigError):
        cli.parse_run_spec(["auction", "--config", str(cfg)])


# ---------------------------------------------------------------------------
# Exit codes


def test_bad_p_eps_exits_usage(tmp_path, capsys):
    code = _run(
        ["auction", "--p-eps", "1.5", "--seed", "1", "--out", str(tmp_path / "a.csv")]
    )
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "p_eps" in err  # the offending field is named


def test_nan_premium_value_exits_usage(tmp_path, capsys):
    argv = ["crosscheck", "--v-p-grid", "0.1,nan", "--out", str(tmp_path / "c.csv")]
    assert _run(argv) == cli.EXIT_USAGE
    assert "v_p grid outside" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (f"auction --n-agents {10**23}", "n_agents"),
    (f"sweep --n-agents {10**23}", "n_agents"),
    (f"validate-dist --n-samples {10**23}", "n_samples"),
    (f"deviation --n-opponents {10**23}", "n_opponents"),
    (f"repeat --rounds {10**23}", "rounds"),
    (f"validate-dist --bins {10**23}", "bins"),
    (f"sweep --p-eps-grid 0.1:0.9:{10**23}", "--p-eps-grid"),
    (f"crosscheck --v-p-grid 0:0.5:{10**23}", "--v-p-grid"),
    (f"repeat --rounds {2**59} --n-agents 16", "rounds"),
])
def test_count_numpy_cannot_describe_exits_usage(argv, name, tmp_path, capsys):
    # numpy rejects such a shape before allocating; the count check must come first.
    assert _run([*argv.split(), "--out", str(tmp_path / "a.csv")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "must be at most" in err
    assert not (tmp_path / "a.csv").exists()


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


# ---------------------------------------------------------------------------
# An artifact exists only if it is complete


def _inject(monkeypatch, fmt, at, error):
    """Make the writer raise error at the summary, or at the first or a
    middle block of the per-agent columns; return the count of raises."""
    raised = itertools.count()

    def fail():
        next(raised)
        raise error

    if fmt == "csv":
        real_rows = cli._csv_rows
        fail_at = 2 if at == "middle block" else 0

        def rows(columns):
            # A summary line is a one-column table written before the data.
            for i, text in enumerate(real_rows(columns)):
                if (len(columns) == 1) == (at == "summary") and i == fail_at:
                    fail()
                yield text

        monkeypatch.setattr(cli, "_csv_rows", rows)
    elif at == "summary":
        # The summary is the last part of a JSON artifact but its header.
        real_compact = cli._compact

        def compact(value):
            if isinstance(value, str) and value == "summary":
                fail()
            return real_compact(value)

        monkeypatch.setattr(cli, "_compact", compact)
    else:
        real_floats, calls = cli._json_floats, itertools.count()
        fail_at = 7 if at == "middle block" else 0

        def floats(x):
            nonlocal calls
            if next(calls) == fail_at:
                calls = itertools.count()  # so that the next run fails at the same block
                fail()
            return real_floats(x)

        monkeypatch.setattr(cli, "_json_floats", floats)
    return raised


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   MemoryError()], ids=["OSError", "MemoryError"])
@pytest.mark.parametrize("at", ["first block", "middle block", "summary"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_write_leaves_the_path_as_it_was(fmt, at, error, tmp_path, monkeypatch,
                                                  capsys):
    # Five blocks of rows in either format.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 100)
    monkeypatch.setattr(cli, "_JSON_BLOCK", 100)
    argv = ["auction", "--n-agents", "500", "--seed", "1", "--format", fmt, "--out"]
    old, new = tmp_path / f"old.{fmt}", tmp_path / f"new.{fmt}"
    assert _run([*argv, str(old)]) == cli.EXIT_OK
    before = old.read_bytes()
    capsys.readouterr()
    raised = _inject(monkeypatch, fmt, at, error)
    assert _run([*argv, str(new)]) == cli.EXIT_IO
    assert _run([*argv, str(old)]) == cli.EXIT_IO
    assert next(raised) == 2
    assert not new.exists()
    assert old.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == [old.name]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(("i/o error" if isinstance(error, OSError) else "out of memory") in line
               for line in err)


def test_an_interrupted_write_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 100)
    argv = ["auction", "--n-agents", "500", "--seed", "1", "--out"]
    out = tmp_path / "a.csv"
    assert _run([*argv, str(out)]) == cli.EXIT_OK
    before = out.read_bytes()
    _inject(monkeypatch, "csv", "middle block", KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        _run([*argv, str(out)])
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == [out.name]


def test_an_engine_out_of_memory_exits_io(tmp_path, monkeypatch, capsys):
    def boom(_config):
        raise MemoryError

    monkeypatch.setattr(mechanism, "run_sira", boom)
    out = tmp_path / "a.csv"
    assert _run(["auction", "--seed", "1", "--out", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"out of memory: could not produce {out}\n"
    assert not out.exists()


def test_an_artifact_has_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    out = tmp_path / "a.csv"
    assert _run(["auction", "--n-agents", "10", "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_numerical_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def boom(_spec):
        raise NumericalError("synthetic non-convergence")

    monkeypatch.setattr(mechanism, "run_sira", boom)
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
    assert json.loads(dist_out.read_text(encoding="utf-8"))["summary"]["ks_distance"] < 0.02
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
    assert json.loads(check_out.read_text(encoding="utf-8"))["summary"]["max_abs_diff"] <= 1e-12


SCHEMA_RUNS = {
    "deviation": [
        "deviation", "--family", "beta22", "--deltas=-1,-0.5,0.1,1", "--n-opponents", "500",
        "--seed", "2"
    ],
    "sweep": [
        "sweep", "--family", "beta22", "--p-eps-grid", "0.7,0.8,0.999", "--n-agents", "20",
        "--seed", "17"
    ],
    "validate-dist": ["validate-dist", "--n-samples", "2000", "--bins", "10", "--seed", "4"],
    "crosscheck": ["crosscheck", "--v-p-grid", "0:0.5:5", "--p-eps-list", "0.3,0.6"],
}
# The paired per-agent uplift, one per grid point, which no sweep row gives.
JSON_ONLY = {"sweep": {"participation_uplift", "participation_uplift_se"}}


@pytest.mark.parametrize("name", sorted(SCHEMA_RUNS))
def test_experiment_json_results_are_the_csv_columns(name, tmp_path):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    for fmt, out in (("csv", csv_out), ("json", json_out)):
        assert _run([*SCHEMA_RUNS[name], "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
    lines = [ln for ln in _read_lines(csv_out) if not ln.startswith("#")]
    header = lines[0].split(",")
    cells = zip(*(ln.split(",") for ln in lines[1:]))
    results = json.loads(json_out.read_text(encoding="utf-8"))["results"]
    assert set(results) == set(header) | JSON_ONLY.get(name, set())
    for column, csv_cells in zip(header, cells):
        values = results[column]
        if not all(isinstance(v, str) for v in values):
            values = ["nan" if v is None else "%.9g" % v for v in values]
        assert values == list(csv_cells), column


def _synthetic_payloads():
    n = cli._JSON_BLOCK
    rng = np.random.default_rng(5)
    floats = rng.random(2 * n + 3)
    floats[n + 7] = np.nan
    wide = rng.normal(size=(3, n + 9))
    wide[2, n + 1] = -np.inf
    return {
        "nan-in-second-block": {
            "floats": floats, "ints": np.arange(n + 1), "full_block": rng.random(n),
        },
        "wide-2d": {"bools": rng.random((2, n + 5)) < 0.5, "floats": wide},
        "empty": {"flat": np.array([]), "no_rows": np.empty((0, 4)),
                  "no_columns": np.empty((3, 0), dtype=bool)},
        "short-1d": {
            "ints": np.array([3, -12, 0]), "bools": np.array([True, False]),
            "text": np.array(["a", "b c"]), "float16": np.array([0.5, np.nan], np.float16),
            "float32": np.array([-np.inf, 0.1], np.float32), "one_nan": np.array([np.nan]),
            "wide": np.array([-1.2345678901234567e-100, -2.2250738585072014e-308,
                              -1.7976931348623157e+308]),
        },
        "scalars": {
            "nan": np.array(np.nan), "zero_d": np.array(7), "int": np.int64(-3),
            "float32": np.float32(0.5), "bool": np.bool_(True),
            "nested": {"b": [np.float64(1.5), None, "x"], "a": {}},
        },
    }


def _plain(value):
    """value as the plain Python values that json.dumps writes: arrays and
    numpy scalars through tolist, nan and infinite floats as None."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _assert_streams_as_plain_dump(payload):
    """payload streams as json.dumps writes its plain values, and the text
    is strict JSON."""
    streamed = "".join(cli._json_chunks(payload))
    reference = json.dumps(_plain(payload), sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    _assert_same_text(streamed, reference)
    json.loads(streamed, parse_constant=_refuse)


@pytest.mark.parametrize("name", sorted(_synthetic_payloads()))
def test_streamed_json_equals_one_shot_dump(name):
    _assert_streams_as_plain_dump(_synthetic_payloads()[name])


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                                   2.2250738585072014e-308, 1.7976931348623157e+308])
_ARRAY_DTYPES = st.sampled_from([np.bool_, np.int64, np.float16, np.float32, np.float64, "U3"])
_SCALAR_DTYPES = st.sampled_from([np.bool_, np.int8, np.int64, np.uint8, np.uint64, np.float16,
                                  np.float32, np.float64, "U3"])
_JSON_LEAVES = st.one_of(
    st.floats() | _SPECIAL_FLOATS,
    st.integers(-(2**63), 2**64 - 1),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    _SCALAR_DTYPES.flatmap(lambda dtype: hnp.from_dtype(np.dtype(dtype)).map(np.dtype(dtype).type)),
    hnp.arrays(_SCALAR_DTYPES, ()),
    hnp.arrays(_ARRAY_DTYPES, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12)),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(payload=_JSON_PAYLOADS)
@example(payload={"b": [np.float32(np.nan), np.array(-np.inf), np.float16(np.inf)],
                  "a": np.array([[np.nan, 0.5], [-0.0, np.inf]], np.float16),
                  "c": (np.array([True] * 11), np.arange(-3, 9), np.array(["x", "yz"] * 4))})
def test_json_of_any_nested_payload_equals_plain_python_dump(payload):
    # Blocks of 5 values, so that arrays cross block boundaries.
    with mock.patch.object(cli, "_JSON_BLOCK", 5):
        _assert_streams_as_plain_dump(payload)


@pytest.mark.parametrize("holder", [float, np.float64, np.float32, np.array],
                         ids=["float", "float64", "float32", "0-d"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_statistics_are_json_null_and_csv_text(value, holder, tmp_path, monkeypatch):
    real = cli.validate_product_distribution

    def undefined_statistics(**params):
        statistic = holder(value)
        return dataclasses.replace(real(**params), pdf_sup_error=statistic,
                                   cdf_sup_error=statistic, ks_distance=statistic)

    monkeypatch.setattr(cli, "validate_product_distribution", undefined_statistics)
    argv = ["validate-dist", "--n-samples", "200", "--bins", "10", "--seed", "1"]
    json_out, csv_out = tmp_path / "v.json", tmp_path / "v.csv"
    assert _run([*argv, "--format", "json", "--out", str(json_out)]) == cli.EXIT_OK
    summary = json.loads(json_out.read_text(encoding="utf-8"), parse_constant=_refuse)["summary"]
    assert summary == {"pdf_sup_error": None, "cdf_sup_error": None, "ks_distance": None}
    assert _run([*argv, "--out", str(csv_out)]) == cli.EXIT_OK
    assert _read_lines(csv_out)[2:5] == [
        f"# {key} {value}" for key in ("cdf_sup_error", "ks_distance", "pdf_sup_error")]


def _json_bool_arrays():
    n = cli._JSON_BLOCK
    rng = np.random.default_rng(31)
    return {
        "empty": np.array([], dtype=bool),
        "one": np.array([True]),
        "block": rng.random(n) < 0.5,
        "block+1": rng.random(n + 1) < 0.5,
        "column-of-2d": (rng.random((n + 3, 3)) < 0.5)[:, 1],
        "every-other": (rng.random(2 * n + 5) < 0.5)[::2],
        # Bytes other than 0 and 1 viewed as bool are true.
        "uint8-view": np.array([0, 1, 2, 255], np.uint8).view(bool),
    }


@pytest.mark.parametrize("name", sorted(_json_bool_arrays()))
def test_json_bools_equal_json_dumps(name):
    x = _json_bool_arrays()[name]
    _assert_same_text("".join(cli._json_chunks(x)), json.dumps(x.tolist(), separators=(",", ":")))


def _reference_cells(column):
    """Per-cell CSV rule: bools as 1/0, floats to 9 significant digits,
    everything else through str()."""
    if column.dtype.kind == "b":
        return ["1" if value else "0" for value in column.tolist()]
    if column.dtype.kind == "f":
        return ["{:.9g}".format(value) for value in column.tolist()]
    return [str(value) for value in column.tolist()]


def _assert_same_text(written, reference):
    # Compared around the first difference: pytest's own diff of one
    # megabyte-long line takes minutes.
    at = max(len(os.path.commonprefix([written, reference])) - 30, 0)
    assert written[at : at + 60] == reference[at : at + 60]
    assert len(written) == len(reference)


def _synthetic_columns(n_rows):
    rng = np.random.default_rng(23)
    specials = [
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
        np.finfo(float).max, -np.finfo(float).max, 1e-5, 9.999999995e-5,
        999999999.5, 1e9, 1e16, 123456789.5,
    ]
    bits = rng.integers(0, 2**64, size=n_rows, dtype=np.uint64)
    floats = bits.view(np.float64).copy()
    floats[: len(specials)] = specials[:n_rows]
    words = np.array(["100%", "%s", "%d%%", "plain", "a,%.9g"])
    return {
        "float_bits": floats,
        "flag": rng.random(n_rows) < 0.5,
        "float_uniform": rng.random(n_rows) * 10.0 ** rng.integers(-8, 20, n_rows),
        "int64": rng.integers(-(2**63), 2**63 - 1, size=n_rows, dtype=np.int64),
        "uint64": rng.integers(0, 2**64 - 1, size=n_rows, dtype=np.uint64),
        "text": words[rng.integers(0, words.size, n_rows)],
        "float32": rng.normal(size=n_rows).astype(np.float32),
    }


@pytest.mark.parametrize(
    "n_rows", [0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1], ids=["0", "1", "block", "block+1"]
)
def test_block_csv_rows_equal_per_cell_reference(n_rows):
    columns = _synthetic_columns(n_rows)
    written = "".join(cli._csv_rows(columns))
    cells = [_reference_cells(column) for column in columns.values()]
    reference = "".join(",".join(row) + "\n" for row in zip(*cells))
    _assert_same_text(written, reference)


def _assert_csv_equals_per_cell_reference(columns):
    written = "".join(cli._csv_rows(columns))
    cells = [_reference_cells(column) for column in columns.values()]
    _assert_same_text(written, "".join(",".join(row) + "\n" for row in zip(*cells)))


def _stepped(values, ulps):
    """Each value moved by its number of ulps (int64 bit steps)."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64) + np.asarray(ulps)
    return bits.view(np.float64)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
@example(bits=[0, 2**63, 1, 2**63 + 1, 0x7FF0000000000000, 0xFFF0000000000000,
               0x7FF8000000000000, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF])
def test_csv_floats_of_any_bit_pattern_equal_per_cell_reference(bits):
    bits = np.array(bits, dtype=np.uint64)
    # The same signs and mantissas with exponents 2**-14 to 2**17, around
    # the range that digit arithmetic writes.
    exponents = np.uint64(1009) + (bits >> np.uint64(58) & np.uint64(31))
    near = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponents << np.uint64(52)
    _assert_csv_equals_per_cell_reference({"x": bits.view(np.float64),
                                           "near": near.view(np.float64)})


@settings(max_examples=200, deadline=None)
@given(
    significands=st.lists(st.integers(10**8, 10**9 - 1), min_size=1, max_size=100),
    exponent=st.integers(-6, 1),
    ulps=st.integers(-4, 4),
    negative=st.booleans(),
)
@example(significands=[999_999_999], exponent=0, ulps=0, negative=False)
@example(significands=[100_000_000, 122_070_312], exponent=-4, ulps=0, negative=True)
def test_csv_floats_near_rounding_ties_equal_per_cell_reference(
    significands, exponent, ulps, negative
):
    # (k + 0.5)·10**(X - 8): halfway between two 9-digit values.
    ties = np.array([float(f"{k}5e{exponent - 9}") for k in significands])
    x = _stepped(ties, ulps) * (-1.0 if negative else 1.0)
    _assert_csv_equals_per_cell_reference({"x": x})


@settings(max_examples=200, deadline=None)
@given(ulps=st.lists(st.integers(-2**20, 2**20), min_size=16, max_size=16),
       negative=st.booleans())
def test_csv_floats_near_range_edges_equal_per_cell_reference(ulps, negative):
    # 1e-4, 1 and 10 bound the digit-arithmetic range and its exponents;
    # 9-digit rounding lifts the values just below each power of ten to it.
    edges = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 9.9999999995e-5, 0.99999999995,
             9.9999999995, 1.00000001, 9.99999999, 1e-4 * (1 - 1e-9), 5e-5, 0.5, 2.0, 0.0]
    x = _stepped(edges, ulps) * (-1.0 if negative else 1.0)
    _assert_csv_equals_per_cell_reference({"x": x, "exact": np.array(edges)})


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(width=32),
            st.integers(-(2**63), 2**63 - 1),
            st.integers(0, 2**64 - 1),
            st.booleans(),
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")
                    | st.sampled_from("%,"), max_size=8),
            st.floats(),
        ),
        min_size=1,
        max_size=50,
    )
)
@example(rows=[(np.float32(-3.4e38), -(2**63), 2**64 - 1, True, "100%,", -0.0),
               (np.float32(1e-45), 2**63 - 1, 0, False, "%s%d", 5e-324)])
def test_csv_mixed_columns_equal_per_cell_reference(rows):
    f32, i64, u64, flag, text, f64 = zip(*rows)
    _assert_csv_equals_per_cell_reference({
        "float32": np.array(f32, dtype=np.float32),
        "int64": np.array(i64, dtype=np.int64),
        "uint64": np.array(u64, dtype=np.uint64),
        "flag": np.array(flag),
        "text": np.array(text),
        "float64": np.array(f64),
        "small_int": np.array(i64, dtype=np.int64) % 1000 - 500,
    })


def test_csv_widest_float_cells_equal_per_cell_reference():
    # %.9g writes the first three in 16 bytes, a float cell's full width:
    # their slow cells fill the rows without widening them.
    wide = np.array([-2.2250738585072014e-308, -1.7976931348623157e+308, -5e-324,
                     np.nan, -np.inf, 0.25, -1.5, 3e-3])
    assert max(len("%.9g" % v) for v in wide.tolist()) == 16
    assert cli._float_cells(wide).shape == (wide.size, 16)
    _assert_csv_equals_per_cell_reference({"wide": wide, "reversed": wide[::-1].copy()})


def test_csv_text_cell_with_nul_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        "".join(cli._csv_rows({"text": np.array(["a\0b"], dtype=object)}))


def test_csv_summary_lines_equal_per_cell_reference(tmp_path):
    summary = {
        "a_bool": np.bool_(True),
        "b_false": False,
        "c_int": -7,
        "d_float": 0.1 + 0.2,
        "e_nan": np.nan,
        "f_zero_d": np.asarray(2.0 / 3.0),
        "g_uint": np.uint64(2**64 - 1),
        "h_text": "50%",
    }
    spec = cli.RunSpec("auction", {}, tmp_path / "s.csv", "csv", 1)
    cli._emit(spec, summary, {"x": np.arange(2)}, {})
    lines = _read_lines(spec.out_path)[2 : 2 + len(summary)]
    assert lines == [
        f"# {key} {_reference_cells(np.array([summary[key]]))[0]}" for key in sorted(summary)
    ]


def test_csv_writer_memory_is_bounded_by_one_block(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)
    spec = cli.RunSpec("auction", {}, tmp_path / "m.csv", "csv", 1)

    def peak_bytes(n_rows):
        rng = np.random.default_rng(n_rows)
        columns = {"agent": np.arange(n_rows), "flag": rng.random(n_rows) < 0.5}
        columns.update((f"f{j}", rng.random(n_rows)) for j in range(8))
        tracemalloc.start()
        try:
            cli._emit(spec, {}, columns, {})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak_bytes(cli._BLOCK_ROWS)
    assert peak_bytes(8 * cli._BLOCK_ROWS) < 2 * one_block


def _assert_json_floats_equal_reference(x):
    """A float array streams as json.dumps writes its values: each value's
    float.__repr__, and null where it is not finite."""
    texts = [float.__repr__(v) if math.isfinite(v) else "null" for v in x.tolist()]
    _assert_same_text("".join(cli._json_chunks(x)), "[" + ",".join(texts) + "]")


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
@example(bits=[0, 2**63, 1, 2**63 + 1, 0x7FF0000000000000, 0xFFF0000000000000,
               0x7FF8000000000000, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF])
def test_json_floats_of_any_bit_pattern_equal_per_value_reference(bits):
    bits = np.array(bits, dtype=np.uint64)
    # The same signs and mantissas with exponents 2**-14 to 2**17, around
    # the range that digit arithmetic writes.
    exponents = np.uint64(1009) + (bits >> np.uint64(58) & np.uint64(31))
    near = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponents << np.uint64(52)
    _assert_json_floats_equal_reference(bits.view(np.float64))
    _assert_json_floats_equal_reference(near.view(np.float64))


def _decimals_that_round_to(x, digits):
    """How many decimals of that many significant digits lie strictly
    inside the interval of reals that round to the positive double x."""
    below, above = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
    low = (Fraction(x) + Fraction(float(below))) / 2
    high = (Fraction(x) + Fraction(float(above))) / 2
    step = Fraction(10) ** (math.floor(math.log10(x)) + 1 - digits)
    return math.ceil(high / step) - math.floor(low / step) - 1


def _two_candidate_values(digits, binades, rng, n):
    """Decimals halfway between two of the given number of significant
    digits, as the doubles nearest them, drawn from binades whose half gap
    is wide enough that often both neighbours round to the double."""
    values = []
    for low, high in binades:
        for v in rng.uniform(low, high, n).tolist():
            mantissa, exponent = f"{v:.{digits - 1}e}".split("e")
            values.append(float(f"{mantissa}5e{exponent}"))
    return np.array(values)


def _json_edge_values():
    rng = np.random.default_rng(29)
    powers = 2.0 ** np.arange(-14, 4)
    edges = np.repeat([1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0], 10_001)
    steps = _stepped(edges, np.tile(np.arange(-5000, 5001), 6))
    random = rng.random(3000).tolist()
    truncated = [float(f"{v:.{d}g}") for v, d in zip(random, rng.integers(1, 17, 3000).tolist())]
    return {
        "powers-of-two": np.concatenate([powers, -powers]),
        "ulp-steps": np.concatenate([steps, -steps]),
        "integral": np.concatenate([np.arange(1.0, 10.0), -np.arange(1.0, 10.0)]),
        "specials": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.5,
                              np.finfo(float).max, 1.0, -0.0]),
        "long-repr": np.array([0.25, -np.finfo(float).max, -1.2345678901234567e-100, 1.0]),
        # One block whose 24-character reprs widen its rows, among fast
        # values, nan and infinities.
        "widened-rows": np.array([0.25, -1.2345678901234567e-100, np.nan, 1.5, np.inf,
                                  -2.2250738585072014e-308, -0.003, -np.inf,
                                  -1.7976931348623157e+308, 7.0]),
        "short-decimals": np.array([0.1, 0.25, 0.2 + 0.1, 1.5, 2.675, 9.5, 1e-3, 1e-4, 5e-4,
                                    *truncated]),
        # Found by search: each lies within 3e-7 units of the 17th digit of
        # a boundary that decides its digits: the half gap (the first
        # five), a tie between two tens (the next two) or between two
        # integers (the rest).
        "near-decisions": np.array([
            0.126787919650882, 0.3741067754154003, 0.3701568910825698,
            0.0032830315464045692, 0.023311324744222352,
            0.22242216026667605, 0.023923423952801115,
            0.0003456107370893694, 0.0008777674532814268, 0.8143011402465276,
            0.0002670076190369151, 0.00031284397077767124, 0.06421764121599614,
            0.09471854163330824, 0.0013122645937151556,
        ]),
        "two-16-digit": _two_candidate_values(
            16, [(8.0, 10.0), (0.0078125, 0.01), (0.0009765625, 0.001)], rng, 300),
        "two-17-digit": _two_candidate_values(
            17, [(1.0, 2.0), (2.0, 4.0), (0.125, 0.25)], rng, 300),
    }


@pytest.mark.parametrize("name", sorted(_json_edge_values()))
def test_json_floats_at_edge_values_equal_per_value_reference(name):
    x = _json_edge_values()[name]
    _assert_json_floats_equal_reference(x)
    with np.errstate(over="ignore"):  # float32 overflows to inf
        _assert_json_floats_equal_reference(x.astype(np.float32))


@pytest.mark.parametrize("digits", [16, 17])
def test_two_candidate_values_hold_two_candidates(digits):
    # The premise of the two-*-digit edge values: most of them have two
    # decimals of that length, and none shorter, that round to them.
    x = _json_edge_values()[f"two-{digits}-digit"]
    both = [_decimals_that_round_to(v, digits) >= 2 and _decimals_that_round_to(v, digits - 1) == 0
            for v in x.tolist()]
    assert sum(both) > x.size // 2


def test_json_writer_memory_is_bounded_by_one_block(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_JSON_BLOCK", 1000)
    spec = cli.RunSpec("auction", {}, tmp_path / "m.json", "json", 1)

    def peak_bytes(n_rows):
        rng = np.random.default_rng(n_rows)
        columns = {"agent": np.arange(n_rows), "flag": rng.random(n_rows) < 0.5}
        columns.update((f"f{j}", rng.random(n_rows)) for j in range(8))
        tracemalloc.start()
        try:
            cli._emit(spec, {}, columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak_bytes(cli._JSON_BLOCK)
    assert peak_bytes(8 * cli._JSON_BLOCK) < 2 * one_block


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


REPLAY_RUNS = {
    "auction": ["--family", "beta22", "--pairing", "perfect", "--n-agents", "300", "--seed", "3"],
    "reserve": ["--n-agents", "300", "--gamma", "2", "--seed", "4"],
    "repeat": ["--pairing", "perfect", "--rounds", "2", "--n-agents", "301", "--seed", "5"],
    **{name: argv[1:] for name, argv in SCHEMA_RUNS.items()},
}


def _config_echo_text(path, fmt):
    if fmt == "json":
        return json.dumps(json.loads(path.read_text(encoding="utf-8"))["config"])
    return _read_lines(path)[1][len("# config ") :]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_config_echo_replays_to_the_same_bytes(name, fmt, tmp_path):
    first, replay = tmp_path / f"first.{fmt}", tmp_path / f"replay.{fmt}"
    argv = [name, *REPLAY_RUNS[name], "--format", fmt]
    assert _run([*argv, "--out", str(first)]) == cli.EXIT_OK
    cfg = tmp_path / "echo.json"
    cfg.write_text(_config_echo_text(first, fmt))
    code = _run([name, "--config", str(cfg), "--format", fmt, "--out", str(replay)])
    assert code == cli.EXIT_OK
    assert first.read_bytes() == replay.read_bytes()


# ---------------------------------------------------------------------------
# Option audit: every option of every subcommand reaches the artifact.

# Values to change each option to; the first that differs from the option's
# value in the REPLAY_RUNS input is used.
_AUDIT_VALUES = {
    "n_agents": ["257"],
    "p_eps": ["0.35"],
    "family": ["uniform", "beta22"],
    "gamma": ["3"],
    "seed": ["99"],
    "pairing": ["independent", "perfect"],
    "rounds": ["3"],
    "probe_v_d": ["0.3"],
    "probe_v_p": ["0.1"],
    "deltas": ["-0.2,0.2"],
    "n_opponents": ["400"],
    "p_eps_grid": ["0.3,0.6"],
    "n_samples": ["1500"],
    "bins": ["12"],
    "v_p_grid": ["0:0.4:5"],
    "p_eps_list": ["0.4"],
}
_DEAD_OPTION = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="sweep --gamma is validated and echoed but changes no result (ROADMAP item 4)",
)


def _audit_cases():
    for name, command in cli._COMMANDS.items():
        for opt in command.options:
            marks = _DEAD_OPTION if (name, opt.dest) == ("sweep", "gamma") else ()
            yield pytest.param(name, opt, marks=marks, id=name + opt.flag)


def _without_config_echo(path):
    lines = _read_lines(path)
    assert lines[1].startswith("# config ")
    return lines[:1] + lines[2:]


@pytest.mark.parametrize("name, opt", _audit_cases())
def test_every_option_changes_the_artifact(name, opt, tmp_path):
    argv = [name, *REPLAY_RUNS[name]]
    base = cli.parse_run_spec(argv).params[opt.dest]
    value = next(v for v in _AUDIT_VALUES[opt.dest] if opt.convert(v) != base)
    first, changed = tmp_path / "first.csv", tmp_path / "changed.csv"
    assert _run([*argv, "--out", str(first)]) == cli.EXIT_OK
    assert _run([*argv, f"{opt.flag}={value}", "--out", str(changed)]) == cli.EXIT_OK
    assert _without_config_echo(first) != _without_config_echo(changed)


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_worker_count_does_not_change_bytes(name, fmt, tmp_path):
    # The stated rule for --workers: every subcommand accepts it, only
    # sweep reads it, to spread its grid points over threads.
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.{fmt}"
        argv = [name, *REPLAY_RUNS[name], "--workers", workers, "--format", fmt]
        assert _run([*argv, "--out", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_deviation_simulates_the_probe_as_given(tmp_path):
    # 0.3 and 0.1 do not survive a trip through a total value and a
    # scaling factor: that route simulates v_d = 0.30000000000000004.
    out = tmp_path / "d.json"
    argv = ["deviation", "--family", "beta22", "--p-eps", "0.4", "--probe-v-d", "0.3",
            "--probe-v-p", "0.1", "--deltas=-0.1,0.1", "--n-opponents", "3000", "--seed", "6",
            "--format", "json", "--out", str(out)]
    assert _run(argv) == cli.EXIT_OK
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    expected = deviation_sweep(ValueFamily.BETA22, 0.4, 0.3, 0.1, [-0.1, 0.1], 3000, 6)
    for column, values in (
        ("bid", expected.bids),
        ("mean_utility", expected.mean_utility),
        ("std_err", expected.std_error),
        ("gap_vs_optimum", expected.gap_vs_optimum),
        ("gap_std_err", expected.gap_std_error),
    ):
        assert results[column] == values.tolist(), column


@pytest.mark.parametrize("v_d, v_p, code", [
    ("0", "0", cli.EXIT_OK),  # an agent with V = 0
    ("0.5", "0.5", cli.EXIT_OK),
    ("0.2", "0.3", cli.EXIT_USAGE),
    ("0.8", "0.3", cli.EXIT_USAGE),
    ("0.5", "-0.1", cli.EXIT_USAGE),
    ("nan", "0.1", cli.EXIT_USAGE),
])
def test_deviation_probe_must_be_a_valid_agent(v_d, v_p, code, tmp_path, capsys):
    argv = ["deviation", "--probe-v-d", v_d, "--probe-v-p", v_p, "--n-opponents", "200",
            "--seed", "1", "--out", str(tmp_path / "d.csv")]
    assert _run(argv) == code
    if code == cli.EXIT_USAGE:
        assert "probe values" in capsys.readouterr().err


def test_different_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["auction", "--n-agents", "100", "--seed", "1", "--out", str(a)]) == 0
    assert _run(["auction", "--n-agents", "100", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
