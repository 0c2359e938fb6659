"""sira benchmark: closed-loop workloads over the CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload agent_csv --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Workloads (see ops.py): agent_csv and agent_json run auction, reserve and
repeat writing per-agent artifacts; experiments runs sweep, deviation,
validate-dist, crosscheck and the library equilibrium crosscheck. One
process runs one op at a time (a closed loop with a single client).

With --trace 0 the run reports the end-to-end metrics: setup_s (fresh
interpreter to `import sira.cli` plus one parse_run_spec, median of 5),
agents_per_s, peak_rss_mb, artifact_bytes_per_agent, and failed_op_ratio
with its base. With --trace 1 a separate run makes each op twice, untraced
and traced, and reports the per-layer metrics of spans.py with the
tracing overhead.
`--workload all` does both for every workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. failed_op_ratio is printed above
it; its base is the JSON's failed and attempted, since the ratio is 0 on
workloads where nothing fails. Exits non-zero without a JSON line when
the checkout holds no sira source or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops
import spans

HERE = Path(__file__).resolve().parent

DEADLINE_S = 170.0
SETUP_RUNS = 5
SETUP_SNIPPET = (
    "import sira.cli; "
    "sira.cli.parse_run_spec(['auction', '--n-agents', '1000', '--seed', '1', '--out', 'x.csv'])"
)
END_TO_END = [
    ("setup_s", "s"),
    ("agents_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("artifact_bytes_per_agent", "B/agent"),
]


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    """Read-only facts about the machine: nproc, versions, cache sizes."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _read(index / "size")
        if level in ("2", "3") and kind == "Unified" and size and size.endswith("K"):
            facts[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return facts


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, workdir: Path) -> list[float]:
    """Wall time from spawning an interpreter until sira.cli is imported
    and one run spec is parsed; the first, untimed spawn warms the
    bytecode cache as an installed package would have it. No timeout:
    with one, subprocess polls the child in steps of up to 50 ms."""
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=workdir, env=_env(root),
                       check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_worker(root: Path, workdir: Path, args, budget: float) -> dict:
    report = workdir / f"report-{args.workload}-{args.seed}-{args.trace}.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--report", str(report)]
    # A process group of its own, so that a timeout also kills the op the worker forked.
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return json.loads(report.read_text())


def _failed(record: dict) -> bool:
    return record["rc"] != 0 or record["check"] is not None


def _wrong(record: dict) -> bool:
    """A failure that is not the program refusing with exit code 3."""
    return record["check"] is not None or record["rc"] not in (0, 3)


def summarise(report: dict) -> tuple[bool, int, int, list[str]]:
    """correct, attempted, failed and the lines describing the ops."""
    records = report["ops"]
    extra = [report["warmup"], *report.get("digest_ops", [])]
    lines = []
    for r in records:
        status = "ok" if not _failed(r) else f"FAILED rc={r['rc']} {r['check'] or r['error']}"
        lines.append(f"  op {r['op']:<52} {r['seconds']:8.3f} s  {status.splitlines()[0]}")
    failed = sum(_failed(r) for r in records)
    correct = (not any(_wrong(r) for r in records + extra)
               and report["rerun_matches"] == report["reruns"]
               and report.get("tracing_changed_bytes", 0) == 0)
    lines.append(f"  cycles {report['cycles']}, reruns with identical bytes "
                 f"{report['rerun_matches']}/{report['reruns']}")
    if "tracing_changed_bytes" in report:
        lines.append(f"  ops whose bytes changed under tracing: "
                     f"{report['tracing_changed_bytes']}/{len(records)}")
    for r in extra:
        if _wrong(r):
            lines.append(f"  FAILED {r['op']}: rc={r['rc']} {r['check'] or r['error']}")
    return correct, len(records), failed, lines


def end_to_end(report: dict, setup: list[float], peak_kib: int) -> dict:
    records = report["ops"]
    good = [r for r in records if not _failed(r)]
    agents = sum(r["agents"] for r in good)
    if not agents:
        raise RuntimeError("no op succeeded")
    wall = sum(r["seconds"] for r in records)
    return {
        "setup_s": statistics.median(setup),
        "agents_per_s": agents / wall,
        "peak_rss_mb": peak_kib / 1024,
        "artifact_bytes_per_agent": sum(r["bytes"] for r in good) / agents,
    }


def run_one(root: Path, workdir: Path, args, started: float, facts: dict):
    """Run one workload; return (correct, attempted, failed, metrics, units)."""
    trace = args.trace
    l2 = facts.get("l2_bytes")
    sets = ", ".join(
        f"{8 * n} B" + (f" ({8 * n / l2:.2f} x L2)" if l2 else "")
        for n in ops.column_sizes(args.workload))
    print(f"workload {args.workload} seed {args.seed} trace {trace}")
    print(f"  per-column working sets: {sets}")
    setup = [] if trace else measure_setup(root, workdir)
    budget = DEADLINE_S - (time.perf_counter() - started)
    report = run_worker(root, workdir, args, budget)
    correct, attempted, failed, lines = summarise(report)
    print("\n".join(lines))
    if trace:
        metrics, units = report["layers"], dict(spans.LAYER_METRICS)
        print(f"  tracing overhead: traced {report['traced_s']:.3f} s - untraced "
              f"{report['untraced_s']:.3f} s = {metrics['trace.overhead_s']:.3f} s")
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics missing: {sorted(missing)}")
        metrics = {name: metrics[name] for name in units}
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics, units = end_to_end(report, setup, peak), dict(END_TO_END)
        print(f"  setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not trace:
        ratio = failed / attempted
        print(f"failed_op_ratio {ratio:.6g} ratio ({failed} failed / {attempted} attempted)")
    return correct, attempted, failed, metrics, units


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own benchmark process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in ops.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S + 10)
            print(out.stdout, end="")
            if out.returncode != 0:
                return out.returncode
            result = json.loads(out.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sira benchmark")
    parser.add_argument("--workload", required=True, choices=[*ops.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "sira" / "cli.py").is_file():
        print("error: no sira source under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    try:
        correct, attempted, failed, values, units = run_one(root, workdir, args, started, facts)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
