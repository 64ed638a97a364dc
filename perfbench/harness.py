"""Timed closed loops, failure accounting and metrics for one run."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cliwork
import layers
import tracing
import verify
import workloads
from stats import median, percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE.parent / ".perfbench_work"
COMMAND_TIMEOUT_S = 60
UNDECIDED = ("inconclusive", "error")


@dataclass
class Execution:
    task_id: str
    latency: float
    verdict: str          # palg's verdict, "error" for a crash
    key: str              # what every run of this task must reproduce
    error: str | None = None


@dataclass
class Run:
    spec_hash: str
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def problem(self, text: str) -> None:
        self.correct = False
        self.problems.append(text)

    def compare_reference(self, ref: dict) -> None:
        """Verdicts and witnesses of the default seed must match the
        recorded ones wherever both runs decided."""
        for tid, (verdict, digest) in self.reference.items():
            if tid not in ref:
                continue
            rverdict, rdigest = ref[tid]
            if verdict in UNDECIDED or rverdict in UNDECIDED:
                continue
            if (verdict, digest) != (rverdict, rdigest):
                self.problem(f"{tid}: {verdict}/{digest} differs from reference "
                             f"{rverdict}/{rdigest}")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _loop(tasks, execute, seconds: float):
    """Run whole passes over ``tasks``, in order, until the next pass would
    end further past ``seconds`` than the last one ends short of it (at
    least two passes), so that every task runs equally often and a cut
    never changes the mix; returns the executions and the time the passes
    took.  Each pass starts from a collected heap, outside the timed part:
    otherwise garbage left by the previous pass decides, differently in
    every run, where the peak memory falls."""
    execs = []
    elapsed = 0.0
    passes = 0
    while True:
        gc.collect()
        start = time.perf_counter()
        for task in tasks:
            execs.append(execute(task))
        elapsed += time.perf_counter() - start
        passes += 1
        if passes >= 2 and elapsed + elapsed / passes / 2 >= seconds:
            return execs, elapsed


def _guarded(check, *args) -> str:
    """A checker that raises rejects the verdict instead of ending the run."""
    try:
        return check(*args)
    except Exception as exc:
        return f"rejected: checker raised {type(exc).__name__}: {exc}"


def _paired(runner, tracer):
    """Run each task untraced and traced, back to back, alternating which
    goes first so that warm-up favours neither side."""
    flip = [False]

    def execute(task):
        flip[0] = not flip[0]
        pair = {}
        for on in ((False, True) if flip[0] else (True, False)):
            runner.set_tracing(tracer if on else None)
            pair[on] = runner.execute(task)
        runner.set_tracing(None)
        return pair[False], pair[True]
    return execute


def _timed_setup(build) -> list[float]:
    """Set up at least three times and for at least two seconds (at most
    fifty times); the median of these is ``setup_s``."""
    times = []
    while len(times) < 3 or (sum(times) < 2.0 and len(times) < 50):
        t0 = time.perf_counter()
        build()
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    def __init__(self, spec):
        self.spec = spec
        self.objs = None
        self.first: dict = {}          # task id -> first Outcome, kept for the checker
        self.tracer = None

    def setup(self):
        self.objs = workloads.build_inputs(self.spec)

    def set_tracing(self, tracer) -> None:
        if tracer is not None and self.tracer is None:
            tracer.install()
        elif tracer is None and self.tracer is not None:
            self.tracer.uninstall()
        self.tracer = tracer

    def execute(self, task) -> Execution:
        if self.tracer is not None:
            self.tracer.task = task["id"]
        t0 = time.perf_counter()
        try:
            out = workloads.run_task(task, self.objs)
        except Exception as exc:                      # a crash is a result here
            out = workloads.Outcome("error", error=type(exc).__name__)
        latency = time.perf_counter() - t0
        self.first.setdefault(task["id"], out)
        return Execution(task["id"], latency, out.verdict, out.key(), out.error)

    def counts(self) -> dict:
        return {tid: out.counts for tid, out in self.first.items()}

    def judge(self, run: Run) -> dict:
        routes = verify.Routes(self.objs)
        by_id = {t["id"]: t for t in self.spec["tasks"]}
        verdicts = {}
        for tid, out in self.first.items():
            verdicts[tid] = _guarded(verify.verify, by_id[tid], out, self.objs, routes)
            run.reference[tid] = [out.verdict if out.error is None else "error",
                                  _digest(out.witness)]
        return verdicts


# ---------------------------------------------------------------------------
# cli workload


class ColdCli:
    def __init__(self, spec):
        self.spec = spec
        self.workdir = WORK_ROOT / f"cli-{os.getpid()}"
        self.objs = None
        self.first: dict = {}          # task id -> (code, stdout, error, digest)
        self.trace_spans = False
        self.spans: list = []
        self.startup: list[float] = []

    def setup(self):
        """Build the objects, write the input files and start palg once
        cold, as a user's first command would (the first set-up of a
        checkout also compiles palg's bytecode)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.objs = workloads.build_inputs(self.spec)
        cliwork.write_inputs(self.spec, self.objs, self.workdir)
        self._run([sys.executable, "-m", "palg.cli", "qb", "3"], check=True)

    def _run(self, cmd, check=False):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=check)

    def set_tracing(self, tracer) -> None:
        """Children trace themselves through the launcher."""
        self.trace_spans = tracer is not None

    def execute(self, task) -> Execution:
        if self.trace_spans:
            span_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(span_file), *task["argv"]]
        else:
            cmd = [sys.executable, "-m", "palg.cli", *task["argv"]]
        t0 = time.perf_counter()
        try:
            proc = self._run(cmd)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = -1, "", "timeout"
        latency = time.perf_counter() - t0
        if task["group"] == "qb" and not self.trace_spans:
            self.startup.append(latency)
        if self.trace_spans:
            self._collect_spans(task["id"])
        crashed = "Traceback (most recent call last)" in stderr
        error = None
        if crashed:
            error = stderr.strip().splitlines()[-1].split(":")[0]
        elif not 0 <= code <= 4:
            error = f"exit {code}"
        elif code in (2, 3):
            error = f"exit {code}: {stderr.strip()[:80]}"
        verdict = "error" if error else ("inconclusive" if code == 4 else f"exit {code}")
        digest = cliwork.output_digest(task["check"], stdout, self.workdir) if not error else ""
        self.first.setdefault(task["id"], (code, stdout, error, digest))
        return Execution(task["id"], latency, verdict, json.dumps([verdict, digest, error]),
                         error)

    def _collect_spans(self, task_id):
        span_file = self.workdir / "spans.json"
        try:
            spans = json.loads(span_file.read_text())
            span_file.unlink()
        except (OSError, ValueError):
            return
        base = len(self.spans)
        for name, start, end, parent, _task, counts in spans:
            self.spans.append([name, start, end, None if parent is None else parent + base,
                               task_id, counts])

    def judge(self, run: Run) -> dict:
        routes = verify.Routes(self.objs)
        tasks = {t["id"]: t for t in self.spec["tasks"]}
        verdicts = {}
        for tid, (code, stdout, error, digest) in self.first.items():
            run.reference[tid] = ["error" if error else f"exit {code}", digest]
            verdicts[tid] = "ok" if error else _guarded(
                cliwork.check_command, tasks[tid]["check"], code, stdout, self.objs,
                self.workdir, routes)
        return verdicts

    def counts(self) -> dict:
        return {}                      # a cold process reports no counts

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# one run


def _account(run: Run, execs, verdicts) -> int:
    """Classify every execution; returns the number decided correctly."""
    decided = 0
    keys: dict[str, set] = {}
    for ex in execs:
        keys.setdefault(ex.task_id, set()).add(ex.key)
        judged = verdicts.get(ex.task_id, "ok")
        run.attempted += 1
        if ex.error is not None or judged.startswith("rejected"):
            run.failed += 1
        elif ex.verdict != "inconclusive":
            decided += 1
    for tid, judged in sorted(verdicts.items()):
        if judged.startswith("rejected"):
            run.problem(f"{tid}: {judged}")
    for tid, seen in sorted(keys.items()):
        if len(seen) > 1:
            run.problem(f"{tid}: two runs disagree on a count, verdict or witness")
    return decided


def _end_to_end(run, execs, elapsed, setup_times, decided, rss_mb) -> None:
    lat = [ex.latency for ex in execs]
    p50, p90 = percentile(lat, 50), percentile(lat, 90)
    run.metrics = {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "verdicts_per_s": {"value": len(execs) / elapsed, "unit": "1/s"},
        "verdict_s.p50": {"value": p50.value, "unit": "s"},
        "verdict_s.p90": {"value": p90.value, "unit": "s"},
        "decided_frac": {"value": decided / len(execs), "unit": "fraction"},
        "ok_frac": {"value": 1 - run.failed / len(execs), "unit": "fraction"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    run.detail.update({"verdict_s.p50.samples": p50.samples,
                       "verdict_s.p90.samples": p90.samples,
                       "verdict_s.p90.beyond": p90.beyond,
                       "timed_s": elapsed, "setup_runs_s": setup_times})


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    spec = workloads.generate(workload, seed)
    run = Run(workloads.spec_hash(spec))
    cli = workload == "cli"
    runner = ColdCli(spec) if cli else InProcess(spec)
    try:
        setup_times = _timed_setup(runner.setup)
        if not traced:
            execs, elapsed = _loop(spec["tasks"], runner.execute, seconds)
        else:
            tracer = tracing.Tracer()
            if not cli:                     # a traced set-up, for the construction layers
                runner.set_tracing(tracer)
                tracer.task = "setup"
                runner.setup()
                runner.set_tracing(None)
            pairs, elapsed = _loop(spec["tasks"], _paired(runner, tracer), seconds)
            execs, traced_execs = [p[0] for p in pairs], [p[1] for p in pairs]
            spans = runner.spans if cli else tracer.spans
        rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = runner.judge(run)
    finally:
        if cli:
            runner.cleanup()
    decided = _account(run, execs + (traced_execs if traced else []), verdicts)
    if not traced:
        _end_to_end(run, execs, elapsed, setup_times, decided, rss_mb)
    else:
        run.metrics = layers.compute(tracing.aggregate(spans), _overhead(execs, traced_execs),
                                     median(runner.startup) if cli and runner.startup else 0.0)
        run.detail["timed_s"] = elapsed
        run.detail["spans"] = len(spans)
    run.detail["tasks_in_pass"] = len(spec["tasks"])
    run.detail["executions"] = run.attempted
    run.detail["tasks"] = _task_records(execs, runner.counts())
    return run


def _task_records(execs, counts: dict) -> dict:
    """Per task: median wall time, executions, and the machine-independent
    counts (nodes, valuations, maps) of its result."""
    times: dict[str, list] = {}
    for ex in execs:
        times.setdefault(ex.task_id, []).append(ex.latency)
    return {tid: {"s": median(v), "runs": len(v), **counts.get(tid, {})}
            for tid, v in sorted(times.items())}


# ---------------------------------------------------------------------------
# per-layer metrics


def _overhead(plain, traced) -> float:
    """Traced over untraced time of the same tasks, run in pairs."""
    base = sum(ex.latency for ex in plain)
    return sum(ex.latency for ex in traced) / base - 1.0 if base else 0.0
