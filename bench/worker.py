"""Run one workload and write a JSON report.

run.py starts this as a child process; sira must be importable (run.py
puts the checkout's src/ on PYTHONPATH). This process imports sira, runs
a warm-up op in-process so lazy set-up is done once, and then forks one
child per op, like a CLI user who starts one process per invocation. The
child times only its call into sira; this process then checks the
artifact and keeps no op's memory, so RUSAGE_CHILDREN seen by run.py is
the largest op's peak RSS.

While an op runs, this process moves the op's threads round the CPUs
the run may use every 50 ms. On a shared machine each CPU has slow and
fast spells, set by other tenants, that last seconds; rotating makes
every op see their average instead of one CPU's luck.

Untraced (--trace 0): whole cycles of the workload until the ops' summed
wall time reaches --seconds, each artifact checked after its timer
stopped, then a rerun of the smallest op of each kind whose bytes must
not change.

Traced (--trace 1): the same loop, but each op also runs a second time
with the tracer installed, alternating which of the two goes first, and
its bytes must equal the untraced ones; the difference in summed wall
time is the tracing overhead. The fixed digest set is traced as well,
so every layer is exercised on every workload. Then the Baseline rows
are timed in isolation, untraced.

`python3 bench/worker.py --record-digests` rewrites digests.json from
the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path

import sira
import sira.cli
import sira.experiments
from sira.errors import ConfigError, DomainError, NumericalError
from sira.value_model import ValueFamily

import checks
import ops
import spans

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
BASELINE_SEED = 20240927
ROTATE_S = 0.05


def _call(op: ops.Op, path: Path) -> tuple[int, str]:
    """Run op, leaving its output at path; return (exit code, message).

    The library op's result is dumped to path by the benchmark, for its
    digest and check; those bytes are not counted as written by sira.
    """
    if not op.is_cli:
        p = op.params
        try:
            result = sira.experiments.equilibrium_crosscheck(
                ValueFamily(p["family"]), p["p_eps"], p["bucket_center"],
                p["bucket_halfwidth"], p["n_pairings"], p["seed"],
            )
        except NumericalError as exc:
            return sira.cli.EXIT_NUMERIC, str(exc)
        except (ConfigError, DomainError) as exc:
            return sira.cli.EXIT_USAGE, str(exc)
        fields = {k: getattr(result, k) for k in checks.EQ_FIELDS}
        fields["family"] = result.family.value
        path.write_text(json.dumps(fields, sort_keys=True))
        return sira.cli.EXIT_OK, ""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = sira.cli.main(op.argv(path))
    return rc, sink.getvalue().strip()


def _timed_op(op: ops.Op, path: Path, traced: bool) -> dict:
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
        root = tracer.begin(f"op.{op.kind}")
    start = time.perf_counter()
    try:
        rc, message = _call(op, path)
    except Exception:  # an op that crashes must not stop the run
        rc, message = -1, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end(root)
        tracer.uninstall()
    return {"rc": rc, "seconds": seconds, "message": message,
            "spans": spans.export(tracer.spans) if tracer else []}


class CpuRotator:
    """Moves every thread of a process to the next CPU every ROTATE_S."""

    def __init__(self, pid: int):
        self.pid = pid
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(ROTATE_S):
            try:
                tids = sorted(int(t) for t in os.listdir(f"/proc/{self.pid}/task"))
            except OSError:
                return
            for k, tid in enumerate(tids):
                try:
                    os.sched_setaffinity(tid, {self.cpus[(k + turn) % len(self.cpus)]})
                except OSError:  # the thread has just ended
                    pass
            turn += 1


def forked(fn, *args) -> dict | None:
    """Run fn(*args) in a forked child; return its JSON-able result.

    Returns None if the child died without a result. Only the calling
    thread exists while forking: CpuRotator starts after the fork and is
    joined before this returns.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w", encoding="utf-8") as out:
                json.dump(fn(*args), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with CpuRotator(pid):
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 and data else None


class Runner:
    """Runs ops one at a time, each in its own forked process."""

    def __init__(self, workdir: Path, traced: bool = False):
        self.workdir = workdir
        self.traced = traced
        self.spans: list[spans.Span] = []

    def run(self, op: ops.Op, check: bool = True) -> dict:
        path = self.workdir / f"artifact.{op.fmt if op.is_cli else 'result.json'}"
        path.unlink(missing_ok=True)
        outcome = forked(_timed_op, op, path, self.traced) or {
            "rc": -1, "seconds": 0.0, "message": "op process died", "spans": []}
        self.spans += spans.load(outcome["spans"])
        ok = outcome["rc"] == sira.cli.EXIT_OK
        record = {"op": op.describe(), "kind": op.kind, "agents": op.agents, "edge": op.edge,
                  "seconds": outcome["seconds"], "rc": outcome["rc"], "bytes": 0,
                  "digest": None, "error": None if ok else outcome["message"], "check": None}
        if ok and not path.is_file():
            record["check"] = "exit code 0 but no output file"
        elif ok:
            data = path.read_bytes()
            record["digest"] = hashlib.sha256(data).hexdigest()
            record["bytes"] = len(data) if op.is_cli else 0
            if check:
                try:
                    if op.is_cli:
                        checks.check_artifact(op, path, sira.__version__)
                    else:
                        checks.check_equilibrium(op, json.loads(data))
                except checks.CheckError as exc:
                    record["check"] = str(exc)
        path.unlink(missing_ok=True)
        return record


def closed_loop(workload: str, seed: int, seconds: float, step):
    """Whole cycles, one op at a time, until the ops' wall time reaches seconds.

    step(op) runs one op and returns its record."""
    done, records, cycle, spent = [], [], 0, 0.0
    while cycle == 0 or spent < seconds:
        for op in ops.cycle_ops(workload, seed, cycle):
            record = step(op)
            done.append(op)
            records.append(record)
            spent += record["seconds"]
        cycle += 1
    return done, records, cycle


class PairedStep:
    """Runs each op untraced and traced, alternating which goes first so
    that neither side always follows the same work."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.traced = Runner(runner.workdir, traced=True)
        self.traced_records: list[dict] = []

    def __call__(self, op: ops.Op) -> dict:
        if len(self.traced_records) % 2:
            traced = self.traced.run(op, check=False)
            record = self.runner.run(op)
        else:
            record = self.runner.run(op)
            traced = self.traced.run(op, check=False)
        self.traced_records.append(traced)
        return record


def rerun_smallest(done, records, runner: Runner) -> tuple[int, int]:
    """Rerun the smallest successful op of each kind; count identical bytes."""
    smallest = {}
    for op, record in zip(done, records):
        best = smallest.get(op.kind)
        if record["digest"] and (best is None or op.agents < best[0].agents):
            smallest[op.kind] = (op, record)
    matches = sum(runner.run(op, check=False)["digest"] == record["digest"]
                  for op, record in smallest.values())
    return len(smallest), matches


def baseline_rows() -> dict[str, float]:
    """Best-of-3 times of the ROADMAP Baseline calls, in isolation."""
    from sira.mechanism import AuctionConfig, run_reserve_threshold, run_sira
    from sira.seeding import substream
    from sira.value_model import sample_total_values

    def best_of_3(call) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    rows = {}
    for family in ValueFamily:
        for n, label in ((100_000, "1e5"), (1_000_000, "1e6")):
            config = AuctionConfig(n_agents=n, p_eps=0.5, family=family, seed=BASELINE_SEED)
            calls = {
                "sample_total_values": lambda: sample_total_values(
                    family, substream(BASELINE_SEED, 0), n),
                "run_sira": lambda: run_sira(config),
                "run_reserve_threshold": lambda: run_reserve_threshold(config),
            }
            for name, call in calls.items():
                rows[f"baseline.{name}.{family.value}.{label}"] = best_of_3(call)
    return rows


def run_digest_set(runner: Runner) -> tuple[list[dict], int]:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    records = [runner.run(op) for op in ops.DIGEST_OPS]
    matched = sum(r["digest"] == want["sha256"] for r, want in zip(records, recorded))
    return records, matched


def trace_report(untraced: list[dict], step: PairedStep) -> dict:
    """Per-layer metrics from the traced ops plus the traced digest set."""
    digest_records, digest_matched = run_digest_set(step.traced)
    traced = step.traced_records
    layers = spans.layer_metrics(step.traced.spans)
    written = sum(r["bytes"] for r in traced + digest_records)
    layers["cli.bytes_written"] = written
    layers["cli.serialise_mb_per_s"] = written / 1e6 / layers["cli.serialise_s"]
    layers["cli.digest_match_ratio"] = digest_matched / len(ops.DIGEST_OPS)
    untraced_s = sum(r["seconds"] for r in untraced)
    traced_s = sum(r["seconds"] for r in traced)
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    changed = sum(a["digest"] != b["digest"] for a, b in zip(untraced, traced))
    return {"layers": layers, "traced_ops": traced, "digest_ops": digest_records,
            "traced_s": traced_s, "untraced_s": untraced_s, "tracing_changed_bytes": changed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path, default=Path(".bench_work"))
    parser.add_argument("--report", type=Path)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)

    if args.record_digests:
        records = [Runner(args.workdir).run(op) for op in ops.DIGEST_OPS]
        bad = [r for r in records if r["digest"] is None or r["check"]]
        if bad:
            print(f"digest set op failed: {bad[0]}", file=sys.stderr)
            return 1
        DIGESTS.write_text(json.dumps(
            [{"op": r["op"], "sha256": r["digest"]} for r in records], indent=1) + "\n")
        return 0

    warmup = ops.WARMUP
    _timed_op(warmup, args.workdir / "warmup.csv", traced=False)
    (args.workdir / "warmup.csv").unlink()
    gc.freeze()  # forked children then leave the shared heap untouched
    runner = Runner(args.workdir)
    step = PairedStep(runner) if args.trace else runner.run
    done, records, cycles = closed_loop(args.workload, args.seed, args.seconds, step)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cycles": cycles, "warmup": runner.run(warmup), "ops": records}
    if args.trace:
        report.update(trace_report(records, step))
        spans.dump(step.traced.spans, args.workdir / f"spans-{args.workload}-{args.seed}.jsonl")
        rows = forked(baseline_rows)
        if rows is None:
            raise RuntimeError("the Baseline rows' process died")
        report["layers"].update(rows)
    reruns, matches = rerun_smallest(done, records, runner)
    report["reruns"], report["rerun_matches"] = reruns, matches
    if args.trace:
        report["layers"]["cli.rerun_match_ratio"] = matches / reruns if reruns else 0.0
    args.report.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
