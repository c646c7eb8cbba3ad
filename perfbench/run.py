#!/usr/bin/env python3
"""sensor-rank benchmark: run CLI workloads, check their outputs, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload readme_mnnb --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

One benchmark process runs `python3 -m sensor_rank.cli` commands one at a time
as subprocesses (a closed loop with one client), with the BLAS thread count
capped at the number of usable cores. Each run first builds the workload's
inputs from the seed (`synth`, plus the surface-noise pass where the workload
asks for it) several times, then repeats the chain `train -> classify ->
rank` until --seconds have passed, and reports medians.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics instead: after one subprocess chain for reference, it alternates
untraced and traced in-process chains (`sensor_rank.cli.main(argv)`) for
--seconds, then makes one more traced chain with tracemalloc on around the
memory-heavy layers. Every in-process chain must write the same bytes as the
subprocess chain.

Every run checks: exit status 0 within the timeout, `sentinela001` at
tr_rank 1, and output files byte-identical to the run's first chain. A
failed check counts its command in `failed`. Human-readable lines, the run
metadata and `outputs_sha256` come first; the last stdout line is the JSON
result. Full results and trace spans go to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SENTINEL, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
COMMAND_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # stop starting new chains after this, to exit within 180 s
STARTUP_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tweets_per_s": "1/s",
    "train_s": "s",
    "classify_s": "s",
    "rank_s": "s",
    "peak_rss_mb": "MB",
    "label_accuracy": "ratio",
}
PER_LAYER = {
    "corpus.load_corpus_s": "s",
    "corpus.records": "count",
    "corpus.write_corpus_s": "s",
    "corpus.load_follower_graph_s": "s",
    "corpus.graph_edges": "count",
    "text.normalize_s": "s",
    "text.normalize_calls_per_tweet": "calls/tweet",
    "text.build_vocabulary_s": "s",
    "text.build_vocabulary_self_s": "s",
    "text.vocab_terms": "count",
    "text.vectorize_s": "s",
    "text.vectorize_nnz": "count",
    "classify.dataset_from_corpus_s": "s",
    "classify.dataset_from_corpus_self_s": "s",
    "classify.dataset_from_corpus_peak_mb": "MB",
    "classify.train_mnnb_s": "s",
    "classify.predict_many_s": "s",
    "classify.predict_many_peak_mb": "MB",
    "classify.smote_s": "s",
    "classify.smote_rows": "count",
    "classify.smote_peak_mb": "MB",
    "classify.save_model_s": "s",
    "classify.load_model_s": "s",
    "classify.model_bytes": "bytes",
    "forest.train_rf_s": "s",
    "forest.tree_nodes": "count",
    "forest.train_rf_peak_mb": "MB",
    "forest.design_matrix_bytes": "bytes",
    "rank.compute_user_stats_s": "s",
    "rank.candidates": "count",
    "rank.build_transition_s": "s",
    "rank.edges_kept": "count",
    "rank.edges_dropped": "count",
    "rank.twitterrank_s": "s",
    "rank.iterations": "count",
    "rank.connected_components_s": "s",
    "rank.report_s": "s",
    "synth.generate_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Failures:
    """Commands attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.reasons)


# --- environment -----------------------------------------------------------

def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Set every BLAS thread variable to min(requested, cores); default cores."""
    cores = usable_cores()
    requested = [int(os.environ[v]) for v in BLAS_VARS if os.environ.get(v, "").isdigit()]
    threads = max(1, min(min(requested, default=cores), cores))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SENSOR_RANK_LOG", None)
    return env


def _read_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def metadata(blas_threads: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "sensor_rank").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable_cores(),
        "cpu_model": _read_field("/proc/cpuinfo", "model name"),
        "mem_total": _read_field("/proc/meminfo", "MemTotal"),
        "blas_threads": blas_threads,
    }


# --- commands --------------------------------------------------------------

class Command:
    """One finished `sensor-rank` subprocess."""

    def __init__(self, argv: list[str], log_path: Path):
        self.argv = argv
        self.timed_out = False
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "sensor_rank.cli", *argv],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log_path = log_path

    def _kill(self, proc: subprocess.Popen) -> None:
        self.timed_out = True
        proc.kill()

    def problem(self) -> str | None:
        if self.timed_out:
            return f"{self.argv[0]}: timed out after {COMMAND_TIMEOUT_S:.0f} s"
        if self.returncode != 0:
            tail = self.log_path.read_text(encoding="utf-8", errors="replace")[-300:]
            return f"{self.argv[0]}: exit {self.returncode}: {tail.strip()}"
        return None


def sha256_files(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def files_under(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*") if p.is_file())


# --- set-up ----------------------------------------------------------------

class Inputs:
    """A workload's generated input files, built from the seed."""

    def __init__(self, workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.corpus = directory / "corpus.jsonl"
        self.graph = directory / "graph.csv"
        self.config = directory.parent / "synth.json"
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps({**workload.synth, "seed": seed}), encoding="utf-8")

    def synth_argv(self, out: Path) -> list[str]:
        return ["synth", "--config", str(self.config), "--out", str(out)]

    def build(self, failures: Failures, log_dir: Path) -> tuple[float, str, str] | None:
        """Make the inputs once; returns (seconds, synth sha256, input sha256)."""
        import noise

        shutil.rmtree(self.dir, ignore_errors=True)
        failures.attempt()
        start = time.perf_counter()
        cmd = Command(self.synth_argv(self.dir), log_dir / "synth.log")
        if cmd.problem():
            failures.fail(cmd.problem())
            return None
        synth_sha = sha256_files([self.corpus, self.graph])
        if self.workload.noise:
            noise.rewrite_corpus(self.corpus, self.seed)
        elapsed = time.perf_counter() - start
        return elapsed, synth_sha, sha256_files([self.corpus, self.graph])

    def gold(self) -> list[str]:
        return [json.loads(line)["label"] for line in self.corpus.read_text(encoding="utf-8").splitlines()]


def set_up(workload, seed: int, wdir: Path, failures: Failures):
    """Build the inputs SETUP_REPS times; all repetitions must be identical."""
    inputs = Inputs(workload, seed, wdir / "input")
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        built = inputs.build(failures, wdir)
        if built is None:
            return inputs, times, None, None
        times.append(built[0])
        digests.add(built[1:])
    if len(digests) != 1:
        failures.fail("set-up: repeated synth runs produced different inputs")
    synth_sha, input_sha = sorted(digests)[0]
    return inputs, times, synth_sha, input_sha


# --- the command chain -----------------------------------------------------

def chain_argvs(workload, inputs: Inputs, seed: int, out: Path) -> list[list[str]]:
    model = out / "model.json"
    return [
        ["train", "--corpus", str(inputs.corpus), "--model", str(model), "--seed", str(seed),
         *workload.train_flags],
        ["classify", "--corpus", str(inputs.corpus), "--model", str(model), "--out", str(out / "cls")],
        ["rank", "--corpus", str(out / "cls" / "classified.jsonl"), "--graph", str(inputs.graph),
         "--out", str(out / "rank")],
    ]


def output_files(out: Path) -> dict[str, list[Path]]:
    """Each command's output files, so a mismatch is charged to its command."""
    return {
        "train": [out / "model.json"],
        "classify": files_under(out / "cls"),
        "rank": files_under(out / "rank"),
    }


def label_accuracy(out: Path, gold: list[str]) -> float:
    """Share of classified labels equal to the generator's gold labels."""
    predicted = [
        json.loads(line)["label"]
        for line in (out / "cls" / "classified.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    if len(predicted) != len(gold):
        raise ValueError(f"classify wrote {len(predicted)} records for {len(gold)} inputs")
    return sum(p == g for p, g in zip(predicted, gold)) / len(gold)


def check_outputs(out: Path) -> tuple[dict[str, str], str | None]:
    """Per-command output digests, and a ranking problem if any."""
    digests = {cmd: sha256_files(paths) for cmd, paths in output_files(out).items()}
    rows = (out / "rank" / "report_tr.tsv").read_text(encoding="utf-8").splitlines()
    top = rows[1].split("\t") if len(rows) > 1 else []
    problem = None
    if top[:1] != [SENTINEL] or top[5:6] != ["1"]:
        problem = f"rank: {SENTINEL} is not at tr_rank 1 (top row: {top[:1]}, tr_rank {top[5:6]})"
    return digests, problem


class ChainRecorder:
    """Runs and checks chains; the first complete chain's outputs are the reference."""

    def __init__(self, workload, inputs: Inputs, seed: int, wdir: Path, failures: Failures):
        self.workload, self.inputs, self.seed = workload, inputs, seed
        self.wdir, self.failures = wdir, failures
        self.gold = inputs.gold()
        self.tweets = len(self.gold)
        self.reference: dict[str, str] | None = None
        self.accuracy: float | None = None
        self.samples: list[dict] = []

    def judge(self, out: Path, commands_ok: list[str]) -> bool:
        """Check a chain's outputs against the reference; charge failures.

        Later chains must match the first byte for byte, so only the first
        one's labels are scored against the gold labels.
        """
        try:
            digests, rank_problem = check_outputs(out)
            if self.reference is None:
                self.reference, self.accuracy = digests, label_accuracy(out, self.gold)
        except (OSError, ValueError, KeyError) as exc:
            self.failures.fail(f"unreadable outputs: {exc!r}")
            return False
        ok = True
        if rank_problem:
            self.failures.fail(rank_problem)
            ok = False
        for cmd in commands_ok:
            if digests[cmd] != self.reference[cmd]:
                self.failures.fail(f"{cmd}: output bytes differ from the first chain")
                ok = False
        return ok

    def run_subprocess_chain(self) -> bool:
        out = self.wdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        commands = []
        start = time.perf_counter()
        for argv in chain_argvs(self.workload, self.inputs, self.seed, out):
            self.failures.attempt()
            cmd = Command(argv, self.wdir / f"{argv[0]}.log")
            commands.append(cmd)
            if cmd.problem():
                self.failures.fail(cmd.problem())
                return False
        wall = time.perf_counter() - start
        if not self.judge(out, [c.argv[0] for c in commands]):
            return False
        self.samples.append({
            "wall_s": wall,
            "tweets_per_s": self.tweets / wall,
            **{f"{c.argv[0]}_s": c.wall_s for c in commands},
            "peak_rss_mb": max(c.rss_mb for c in commands),
        })
        return True


# --- statistics and printing -------------------------------------------------

def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no tail percentile below 11 samples (n={n})"
    pct = int(100 * (1 - 10 / n))
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"p{pct}={value:.4f} (n={n})"


def print_metrics(metrics: dict, samples: dict[str, list[float]]) -> None:
    for name, entry in metrics.items():
        values = samples.get(name)
        detail = f"  median of {len(values)}; {tail_percentile(values)}" if values else ""
        print(f"  {name:40s} {entry['value']:>16.6f} {entry['unit']:<11s}{detail}")


# --- untraced runs -----------------------------------------------------------

def run_untraced(workload, seed: int, seconds: float, wdir: Path, failures: Failures, started: float):
    inputs, setup_times, _, input_sha = set_up(workload, seed, wdir, failures)
    if input_sha is None:
        return None
    chains = ChainRecorder(workload, inputs, seed, wdir, failures)
    measure_start = time.perf_counter()
    while not chains.samples or time.perf_counter() - measure_start < seconds:
        if not chains.run_subprocess_chain() or time.perf_counter() - started > RUN_BUDGET_S:
            break
    if not chains.samples:
        return None
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in ("wall_s", "tweets_per_s", "train_s", "classify_s", "rank_s", "peak_rss_mb"):
        metrics[key] = statistics.median(s[key] for s in chains.samples)
    metrics["label_accuracy"] = chains.accuracy
    samples = {"setup_s": setup_times}
    samples.update({k: [s[k] for s in chains.samples] for k in chains.samples[0]})
    return {
        "metrics": {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END},
        "samples": samples,
        "tweets": chains.tweets,
        "chains": len(chains.samples),
        "input_sha256": input_sha,
        "outputs_sha256": chains.reference,
    }


# --- traced runs ---------------------------------------------------------------

def in_process_chain(recorder: ChainRecorder, out: Path, tracer=None) -> float | None:
    """One chain through sensor_rank.cli.main in this process; returns its wall time."""
    from sensor_rank import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for argv in chain_argvs(recorder.workload, recorder.inputs, recorder.seed, out):
            recorder.failures.attempt()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv)
            if code != 0:
                recorder.failures.fail(f"in-process {argv[0]}: exit {code}: {err.getvalue()[-300:]}")
                return None
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    if not recorder.judge(out, ["train", "classify", "rank"]):
        return None
    return wall


def layer_metrics(tr, tweets: int) -> dict[str, float]:
    """Per-layer values from one traced chain (timings) or memory pass (peaks)."""
    c = tr.counts
    return {
        "corpus.load_corpus_s": tr.total_s("corpus.load_corpus"),
        "corpus.records": c.get("corpus.records", 0),
        "corpus.write_corpus_s": tr.total_s("corpus.write_corpus"),
        "corpus.load_follower_graph_s": tr.total_s("corpus.load_follower_graph"),
        "corpus.graph_edges": c.get("corpus.graph_edges", 0),
        "text.normalize_s": tr.total_s("text.normalize"),
        "text.normalize_calls_per_tweet": tr.call_count("text.normalize") / tweets,
        "text.build_vocabulary_s": tr.total_s("text.build_vocabulary"),
        "text.build_vocabulary_self_s": tr.self_s("text.build_vocabulary"),
        "text.vocab_terms": c.get("text.vocab_terms", 0),
        "text.vectorize_s": tr.total_s("text.vectorize"),
        "text.vectorize_nnz": c.get("text.vectorize_nnz", 0),
        "classify.dataset_from_corpus_s": tr.total_s("classify.dataset_from_corpus"),
        "classify.dataset_from_corpus_self_s": tr.self_s("classify.dataset_from_corpus"),
        "classify.train_mnnb_s": tr.total_s("classify.train_mnnb"),
        "classify.predict_many_s": tr.total_s("classify.predict_many"),
        "classify.smote_s": tr.total_s("classify.smote"),
        "classify.smote_rows": c.get("classify.smote_rows", 0),
        "classify.save_model_s": tr.total_s("classify.save_model"),
        "classify.load_model_s": tr.total_s("classify.load_model"),
        "classify.model_bytes": c.get("classify.model_bytes", 0),
        "forest.train_rf_s": tr.total_s("forest.train_rf"),
        "forest.tree_nodes": c.get("forest.tree_nodes", 0),
        "forest.design_matrix_bytes": c.get("forest.design_matrix_bytes", 0),
        "rank.compute_user_stats_s": tr.total_s("rank.compute_user_stats"),
        "rank.candidates": c.get("rank.candidates", 0),
        "rank.build_transition_s": tr.total_s("rank.build_transition"),
        "rank.edges_kept": c.get("rank.edges_kept", 0),
        "rank.edges_dropped": c.get("rank.edges_dropped", 0),
        "rank.twitterrank_s": tr.total_s("rank.twitterrank"),
        "rank.iterations": c.get("rank.iterations", 0),
        "rank.connected_components_s": tr.total_s("rank.connected_components"),
        "rank.report_s": tr.total_s("rank.ranking_report") + tr.total_s("rank.write_report"),
        "cli.self_s": tr.self_s("cli.main"),
    }


def startup_s(failures: Failures) -> list[float]:
    """Interpreter start plus `import sensor_rank.cli`: the fixed cost of each command."""
    times = []
    for _ in range(STARTUP_REPS):
        failures.attempt()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sensor_rank.cli"], env=child_env(), cwd=ROOT,
            capture_output=True, timeout=COMMAND_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.fail(f"import sensor_rank.cli: exit {proc.returncode}")
    return times


def run_traced(workload, seed: int, seconds: float, wdir: Path, failures: Failures, started: float):
    from sensor_rank import cli
    from tracer import MEMORY_LAYERS, Tracer

    inputs, _, synth_sha, input_sha = set_up(workload, seed, wdir, failures)
    if input_sha is None:
        return None
    recorder = ChainRecorder(workload, inputs, seed, wdir, failures)
    if not recorder.run_subprocess_chain():
        return None

    # synth.generate_s: the generator in process, checked against the subprocess bytes
    synth_tracer = Tracer()
    synth_out = wdir / "traced_synth"
    shutil.rmtree(synth_out, ignore_errors=True)
    synth_tracer.install()
    try:
        failures.attempt()
        with contextlib.redirect_stdout(io.StringIO()):
            code = synth_tracer.span("cli.main", cli.main, inputs.synth_argv(synth_out))
    finally:
        synth_tracer.uninstall()
    if code != 0 or sha256_files([synth_out / "corpus.jsonl", synth_out / "graph.csv"]) != synth_sha:
        failures.fail("in-process synth: output bytes differ from the subprocess synth")

    tracers, untraced, traced, per_pass = [], [], [], []
    out = wdir / "out_inprocess"
    measure_start = time.perf_counter()
    while not traced or time.perf_counter() - measure_start < seconds:
        # alternate which side of the pair runs first, so drift cancels out
        tr = Tracer()
        if len(traced) % 2:
            wall = in_process_chain(recorder, out, tr)
            plain = in_process_chain(recorder, out) if wall is not None else None
        else:
            plain = in_process_chain(recorder, out)
            wall = in_process_chain(recorder, out, tr) if plain is not None else None
        if wall is None or plain is None:
            return None
        untraced.append(plain)
        traced.append(wall)
        per_pass.append(layer_metrics(tr, recorder.tweets))
        tracers.append(tr)
        if time.perf_counter() - started > RUN_BUDGET_S:
            break

    memory = Tracer(memory=True)
    if in_process_chain(recorder, out, memory) is None:
        return None

    samples = {k: [p[k] for p in per_pass] for k in per_pass[0]}
    samples["synth.generate_s"] = [synth_tracer.total_s("synth.generate")]
    samples["cli.startup_s"] = startup_s(failures)
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    values = {k: statistics.median(v) for k, v in samples.items()}
    for name in MEMORY_LAYERS:
        values[f"{name}_peak_mb"] = memory.peaks_mb.get(name, 0.0)
    return {
        "metrics": {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER},
        "samples": samples,
        "tweets": recorder.tweets,
        "chains": len(traced),
        "input_sha256": input_sha,
        "outputs_sha256": recorder.reference,
        "untraced_inprocess_wall_s": untraced,
        "traced_wall_s": traced,
        "subprocess_wall_s": recorder.samples[0]["wall_s"],
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": s.self_s, "workload": workload.name, "run": run}
            for run, tr in enumerate(tracers + [synth_tracer]) for s in tr.spans
        ] + [
            {"aggregate": name, "calls": count, "total_s": total, "workload": workload.name, "run": run}
            for run, tr in enumerate(tracers) for name, (count, total) in sorted(tr.calls.items())
        ],
    }


# --- entry point -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    started = time.perf_counter()
    workload = WORKLOADS[name]
    wdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    failures = Failures()
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, wdir, failures, started)
    shutil.rmtree(wdir, ignore_errors=True)

    correct = result is not None and failures.failed == 0
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.reasons,
        **meta,
        **(result or {}),
    }
    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"elapsed={time.perf_counter() - started:.1f}s")
    if result is not None:
        print(f"  chains: {result['chains']}  tweets: {result['tweets']}")
        print_metrics(result["metrics"], result["samples"])
    print(f"  failed_frac {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4f}")
    if result is not None:
        print(f"  outputs_sha256 {json.dumps(result['outputs_sha256'], sort_keys=True)}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    record["metrics"] = (result or {}).get("metrics", {})
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sensor_rank" / "cli.py").is_file():
        print(f"error: {SRC / 'sensor_rank'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    blas = cap_blas_threads()  # before numpy is imported anywhere in this process
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    meta = metadata(blas)
    print("meta " + json.dumps(meta, sort_keys=True))
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), meta) for n in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
