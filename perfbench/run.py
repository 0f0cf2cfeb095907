"""The repository benchmark: GLADE's learning and grammar-use costs.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload WORKLOAD] [--seed N] \
        [--seconds S] [--trace {0,1}]

Without ``--workload`` it runs both workloads in turn, each reported
as below. Workloads (see BENCHMARK.json for why each exists):

- ``learn-out``: learn ``xml`` and ``flex`` with a file checkpoint
  store, the library form of ``repro learn --out``;
- ``long-input``: Earley ``recognize``/``parse`` of the learned grep
  grammar over a doubling length ladder, the grammar fuzzer on the
  longest passing input, every subject's ``accepts`` over a
  nesting-depth ladder, and ``run_suite("grep")`` on a warm on-disk
  artifact cache, the library form of ``repro eval --cache-dir``.

Each run starts fresh interpreters: the set-up several times (its
median is ``setup_s``), then the timed part once, which repeats the
workload until ``--seconds`` is used up, checks every output against
its reference, and reports the median of the iterations' times.
``--trace 1`` instead runs the timed part once untraced and once with
spans around each layer, and reports the per-layer metrics. The last
line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
Records, traces and per-layer tables go to ``.perfbench_out/``.
A failed output check exits non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("learn-out", "long-input")
#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {"learn-out": 5, "long-input": 5}
#: Fixed string-hash salt, so set iteration order is the same in every
#: run; recorded with each result.
HASH_SEED = "0"
#: Every child must have ended by then (the benchmark's own limit is 180 s).
BUDGET_S = 170.0
#: Which end-to-end metric each per-layer metric should move, and where.
MOVES = (
    ("programs.coverage", "wall_s @ long-input"),
    ("programs.", "wall_s, program_calls @ learn-out; wall_s, ok_frac @ "
                  "long-input"),
    ("learning.oracle.hit_ratio", "program_calls @ learn-out"),
    ("core.", "wall_s @ learn-out"),
    ("languages.engine", "wall_s @ learn-out (near zero @ long-input)"),
    ("artifacts.store.load", "wall_s @ long-input"),
    ("artifacts.store", "wall_s @ learn-out"),
    ("languages.earley", "wall_s, ok_frac @ long-input"),
    ("max_ok_len", "wall_s, ok_frac @ long-input"),
    ("fail_frac", "ok_frac (its complement)"),
    ("languages.sampler", "wall_s @ long-input"),
    ("fuzzing.", "wall_s @ long-input"),
    ("evaluation.harness.derive", "wall_s @ long-input"),
    ("unattributed_s", "residue: traced wall minus layer self times"),
    ("trace.", "none (tracing cost)"),
)


class BenchError(Exception):
    """The benchmark could not produce a checked result."""


def moves(metric: str) -> str:
    for prefix, text in MOVES:
        if metric.startswith(prefix):
            return text
    return ""


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str) -> Dict[str, Any]:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                capture_output=True, text=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": HASH_SEED,
        "loadavg_before": list(os.getloadavg()),
    }


class Children:
    """Starts worker interpreters one at a time, within one time budget."""

    def __init__(self, root: str, workload: str):
        self.root = root
        self.workload = workload
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = HASH_SEED

    def run(self, mode: str, directory: str, *extra: str) -> float:
        """Run one worker to completion; return its wall-clock seconds."""
        left = BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before the {} step".format(mode))
        command = [sys.executable, WORKER, mode, self.workload,
                   "--dir", directory, *extra]
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=self.root, env=self.env,
                                 stdout=sys.stderr)
        # A timer kills the child at the budget, so the wait blocks in
        # waitpid: ``wait(timeout=...)`` would poll in steps of up to
        # 50 ms and quantize the set-up times.
        killer = threading.Timer(left, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
        if code != 0:
            raise BenchError("{} step exited with code {}".format(mode, code))
        return seconds

    def timed(self, directory: str, seed: int, seconds: float,
              iterations: Optional[int] = None,
              trace: Optional[str] = None) -> Dict[str, Any]:
        out = os.path.join(directory, "timed-{}.json".format(
            "traced" if trace else "untraced"))
        extra = ["--seed", str(seed), "--seconds", str(seconds),
                 "--out", out]
        if iterations is not None:
            extra += ["--iterations", str(iterations)]
        if trace is not None:
            extra += ["--trace", trace]
        self.run("run", directory, *extra)
        with open(out) as handle:
            return json.load(handle)


def check_digest(out_dir: str, workload: str, seed: int,
                 digest: Optional[str]) -> None:
    """The canonical metrics of one seed must agree between runs."""
    if digest is None:
        return
    folder = os.path.join(out_dir, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "{}-seed{}.txt".format(workload, seed))
    if os.path.exists(path):
        with open(path) as handle:
            known = handle.read().strip()
        if known != digest:
            raise BenchError(
                "canonical metrics digest {} differs from an earlier run's "
                "{} at seed {}".format(digest, known, seed))
    else:
        with open(path, "w") as handle:
            handle.write(digest + "\n")


def measure(workload: str, args, root: str, out_dir: str,
            spec: Dict[str, Any]):
    children = Children(root, workload)
    env = environment(root)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    name = "{}-seed{}".format(workload, args.seed)
    try:
        setups: List[float] = []
        repeats = 1 if args.trace else SETUP_REPEATS[workload]
        for index in range(repeats):
            directory = os.path.join(work, "setup{}".format(index))
            os.makedirs(directory)
            setups.append(children.run("setup", directory))
        timed_dir = os.path.join(work, "setup0")
        untraced = children.timed(
            timed_dir, args.seed, args.seconds,
            iterations=1 if args.trace else None,
        )
        check_digest(out_dir, workload, args.seed, untraced["digest"])
        traced = None
        if args.trace:
            trace_path = os.path.join(out_dir, "trace-{}.json".format(name))
            traced = children.timed(timed_dir, args.seed, args.seconds,
                                    iterations=1, trace=trace_path)
            check_digest(out_dir, workload, args.seed, traced["digest"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    if traced is None:
        source = untraced
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": untraced["wall_s"],
            "cpu_s": untraced["cpu_s"],
            "peak_rss_mb": untraced["peak_rss_mb"],
            "ok_frac": 1.0 - untraced["failed"] / untraced["attempted"],
            "program_calls": untraced["program_calls"],
            "oracle_queries": untraced["oracle_queries"],
        }
        wanted = spec["end_to_end"]
    else:
        source = traced
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = (
            traced["elapsed_s"] - untraced["elapsed_s"])
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("no value for metric(s): {}".format(missing))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_runs_s": setups,
        "untraced": untraced,
        "traced": traced,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result-{}-trace{}.json".format(
            name, args.trace)), "w") as handle:
        json.dump(record, handle, indent=1)
    return record, source, metrics


def report(record, source, metrics, out_dir: str) -> List[str]:
    env = record["environment"]
    lines = [
        "perfbench {} seed {} trace {}: {} timed iteration(s), {} set-up(s)"
        .format(record["workload"], record["seed"], record["trace"],
                source["iterations"], len(record["setup_runs_s"])),
        "environment: " + json.dumps(env, sort_keys=True),
        "operations: {} attempted, {} failed".format(
            source["attempted"], source["failed"]),
        "{:<44} {:>16}  {:<8} {}".format("metric", "value", "unit",
                                         "should move" if record["trace"]
                                         else ""),
    ]
    for name, metric in metrics.items():
        lines.append("{:<44} {:>16.6g}  {:<8} {}".format(
            name, metric["value"], metric["unit"],
            moves(name) if record["trace"] else ""))
    if record["trace"]:
        table = ["{:<34} {:>9} {:>12} {:>12}".format(
            "layer", "calls", "total_s", "self_s")]
        for row in source["layers"]:
            table.append("{:<34} {:>9} {:>12.6f} {:>12.6f}".format(
                row["layer"], row["calls"], row["total_s"], row["self_s"]))
        self_sum = sum(row["self_s"] for row in source["layers"])
        residue = source["per_layer"]["unattributed_s"]
        table.append("{:<34} {:>9} {:>12} {:>12.6f}".format(
            "unattributed", "", "", residue))
        table.append("layer self times {:.6f} + unattributed {:.6f} = "
                     "traced wall {:.6f} s".format(
                         self_sum, residue, source["elapsed_s"]))
        path = os.path.join(out_dir, "layers-{}-seed{}.txt".format(
            record["workload"], record["seed"]))
        with open(path, "w") as handle:
            handle.write("\n".join(table) + "\n")
        lines += table
        lines.append("chrome trace: {}".format(os.path.join(
            out_dir, "trace-{}-seed{}.json".format(
                record["workload"], record["seed"]))))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("perfbench: no BENCHMARK.json in the current directory",
              file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            record, source, metrics = measure(
                workload, args, root, out_dir, spec)
        except BenchError as error:
            print("perfbench {}: {}".format(workload, error),
                  file=sys.stderr)
            return 1
        for line in report(record, source, metrics, out_dir):
            print(line)
        print(json.dumps({
            "correct": True,
            "attempted": source["attempted"],
            "failed": source["failed"],
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
