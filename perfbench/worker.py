"""One workload of the benchmark, set up or timed, in a fresh interpreter.

``run.py`` starts this file with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/worker.py setup WORKLOAD --dir DIR
    python3 perfbench/worker.py run WORKLOAD --dir DIR --seed N \
        --seconds S [--iterations K] [--trace TRACE.json] --out OUT.json

``setup`` does the workload's set-up (imports, subject loading, and the
grep grammar ``long-input`` starts from) and saves its products under
DIR. ``run`` loads them, repeats the timed part until
``--seconds`` is used up (or exactly ``--iterations`` times), checks
every output against its reference, and writes the measurements to
OUT. With ``--trace`` it records spans around each layer's public
functions and writes them to TRACE as Chrome trace JSON.

The interpreter's recursion limit is never changed: raising it would
hide the ``RecursionError`` defect the ``long-input`` workload counts.
Any check failure exits non-zero without writing OUT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional

from repro.artifacts.run import load_artifact
from repro.artifacts.store import FileCheckpointStore
from repro.artifacts.suite import SuiteParams, canonical_metrics_bytes
from repro.core import pipeline as core_pipeline
from repro.core.pipeline import LearningPipeline
from repro.evaluation import harness, metrics as evaluation_metrics
from repro.evaluation.harness import (
    SubjectArtifactCache,
    default_subject_config,
    run_suite,
)
from repro.fuzzing import grammar_fuzzer
from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages import earley
from repro.languages.engine import (
    CoverageTracker,
    MembershipSession,
    _MemoMatcher,
)
from repro.languages.sampler import GrammarSampler
from repro.programs import SUBJECT_NAMES, get_subject
from spans import LayerStats, Recorder

WORKLOADS = ("learn-out", "long-input")
LEARN_SUBJECTS = ("xml", "flex")
#: ``long-input`` (d) derives this subject's evaluation metrics with
#: ``run_suite`` on a warm artifact cache.
SUITE_SUBJECT = "grep"
BASELINE = os.path.join("benchmarks", "baselines", "BENCH_suite_all.json")

#: ``long-input`` (a): doubling ladder of input lengths.
LADDER = (25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 10000)
#: Per-call deadline of every ``long-input`` call, in seconds.
DEADLINE_S = 3.0
#: The fuzzer step builds a parse tree of the longest passing input and
#: mutates it, so it gets a longer deadline than one ladder call.
FUZZ_DEADLINE_S = 10.0
FUZZ_SAMPLES = 10
#: Filler characters of the ladder inputs: the grep alphabet's letters
#: and digits, which a BRE treats as literals, so every input is legal.
FILLER = "abcdefghijklmnopqrstuvwxyz0123456789"
#: ``long-input`` (c): nesting depths, and each subject's own construct.
DEPTHS = (10, 100, 1000, 3000)
NESTING: Dict[str, Callable[[int], str]] = {
    "sed": lambda d: "{" * d + "p" + "}" * d,
    "flex": lambda d: "%%\n" + "(" * d + "a" + ")" * d + " ECHO;\n",
    "grep": lambda d: "\\(" * d + "a" + "\\)" * d,
    "bison": lambda d: "%%\ne : NUM " + "{" * d + "}" * d + " ;\n",
    "xml": lambda d: "<a>" * d + "</a>" * d,
    "ruby": lambda d: "x = " + "(" * d + "1" + ")" * d + "\n",
    "python": lambda d: "x = " + "(" * d + "1" + ")" * d + "\n",
    "javascript": lambda d: "x = " + "(" * d + "1" + ")" * d + ";",
}
#: SubjectMetrics fields that do not depend on ``SuiteParams.rng_seed``.
SEED_FREE_FIELDS = (
    "grammar_digest", "grammar_productions", "oracle_queries",
    "unique_queries", "seeds_used", "seeds_skipped", "recall",
)


class CheckFailed(Exception):
    """An output differs from its reference."""


class DeadlineMiss(BaseException):
    """Raised by the interval timer; a BaseException so that no
    ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def with_deadline(seconds: float, fn: Callable, *args):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def grammar_digest(grammar) -> str:
    return hashlib.sha256(
        str(grammar).encode("utf-8", "backslashreplace")
    ).hexdigest()


def ladder_inputs(seed: int) -> List[str]:
    """Seed 0 gives ``a``×n; other seeds draw each character from FILLER."""
    if seed == 0:
        return ["a" * n for n in LADDER]
    rng = random.Random("long-input:{}".format(seed))
    return ["".join(rng.choice(FILLER) for _ in range(n)) for n in LADDER]


def load_baseline() -> Dict[str, Dict[str, Any]]:
    with open(BASELINE) as handle:
        return json.load(handle)["metrics"]


# -- set-up ------------------------------------------------------------------


def setup(workload: str, directory: str) -> None:
    if workload == "learn-out":
        for name in LEARN_SUBJECTS:
            get_subject(name)
    else:
        for name in SUBJECT_NAMES:
            get_subject(name)
        cache = SubjectArtifactCache(os.path.join(directory, "cache"))
        cache.get(get_subject(SUITE_SUBJECT))


# -- the timed part ----------------------------------------------------------


class Run:
    """State shared by the iterations of one timed run."""

    def __init__(self, workload: str, directory: str, seed: int,
                 recorder: Optional[Recorder]):
        self.workload = workload
        self.directory = directory
        self.seed = seed
        self.recorder = recorder
        #: Installs wrappers; also used untraced, for the call counter.
        self.patches = recorder if recorder is not None else Recorder()
        self.program_calls = 0
        self.store_bytes = 0
        self.baseline = load_baseline()
        self.timings: Dict[str, float] = {}
        self.ladder_s: Dict[int, float] = {}

    def span(self, layer: str, fn: Callable, *args, label=None):
        if self.recorder is None:
            return fn(*args)
        return self.recorder.call(layer, fn, args, {}, label=label)

    def count_program_calls(self, names) -> None:
        """Count every call that reaches a subject's ``accepts``."""
        for name in names:
            module = get_subject(name).modules[0]
            original = module.accepts

            def counted(text, _original=original):
                self.program_calls += 1
                return _original(text)

            if self.recorder is not None:
                counted = self.recorder.wrap("programs", counted)
            self.patches.install(module, "accepts", counted)

    def instrument(self) -> None:
        """Wrap each layer's public entry points where callers find them."""
        rec = self.recorder
        # The session's own entry points, and the predicates and
        # coverage trackers it hands out, which phase one calls.
        for owner, methods in (
            (MembershipSession,
             ("matcher", "match_many", "covers", "covers_many")),
            (_MemoMatcher, ("__call__", "match_many")),
            (CoverageTracker, ("covered",)),
        ):
            for method in methods:
                rec.patch(owner, method, "languages.engine")
        rec.patch(core_pipeline, "plan_merges", "core.phase2.plan")
        rec.patch(harness, "load_artifact", "artifacts.store.load")
        rec.patch(harness, "derive_subject_metrics",
                  "evaluation.harness.derive",
                  label_of=lambda name, *rest, **kw: name)
        rec.patch(harness, "measure_coverage", "programs.coverage")
        chars = dict(chars_of=lambda grammar, text: len(text))
        for module in (evaluation_metrics, earley):
            rec.patch(module, "recognize", "languages.earley.recognize",
                      **chars)
        for module in (grammar_fuzzer, earley):
            rec.patch(module, "parse", "languages.earley.parse", **chars)
        rec.patch(GrammarSampler, "sample_tree", "languages.sampler")
        rec.patch(GrammarFuzzer, "__init__", "fuzzing.grammar_fuzzer.init")
        rec.patch(GrammarFuzzer, "generate_one",
                  "fuzzing.grammar_fuzzer.generate")
        save = FileCheckpointStore.save

        def saved(store, artifact):
            rec.call("artifacts.store.save", save, (store, artifact), {})
            self.store_bytes += os.path.getsize(store.path)

        rec.install(FileCheckpointStore, "save", saved)

    # Each iteration returns its measurements; outputs are checked after
    # the clock stops.

    def learn_out(self) -> Dict[str, Any]:
        paths = {}
        for name in LEARN_SUBJECTS:
            paths[name] = os.path.join(self.directory, name + ".json")
            for path in (paths[name], paths[name] + ".prev"):
                if os.path.exists(path):
                    os.remove(path)
        calls = self.program_calls
        artifacts = {}
        wall, cpu = time.perf_counter(), time.process_time()
        for name in LEARN_SUBJECTS:
            subject = get_subject(name)
            pipeline = LearningPipeline(
                subject.accepts,
                config=default_subject_config(subject),
                store=FileCheckpointStore(paths[name]),
            )
            artifacts[name] = self.span(
                "core.pipeline.learn", pipeline.run, subject.seeds,
                label=name,
            )
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        for name, artifact in artifacts.items():
            expected = self.baseline[name]
            self.check_learned(name, artifact, expected)
            self.check_learned(name, load_artifact(paths[name]), expected)
            for stage, seconds in artifact.timings.items():
                self.timings[stage] = self.timings.get(stage, 0.0) + seconds
        return {
            "wall_s": wall,
            "elapsed_s": wall,
            "cpu_s": cpu,
            "attempted": len(artifacts),
            "failed": 0,
            "program_calls": self.program_calls - calls,
            "oracle_queries": sum(
                a.oracle_queries for a in artifacts.values()
            ),
        }

    @staticmethod
    def check_learned(name, artifact, expected) -> None:
        got = {
            "grammar_digest": grammar_digest(artifact.require_grammar()),
            "oracle_queries": artifact.oracle_queries,
            "unique_queries": artifact.unique_queries,
        }
        for key, value in got.items():
            if value != expected[key]:
                raise CheckFailed("learn-out {} {}: {!r} != baseline {!r}"
                                  .format(name, key, value, expected[key]))
        if artifact.status != "complete":
            raise CheckFailed("learn-out {}: artifact not complete"
                              .format(name))

    def suite(self) -> str:
        """``run_suite`` of grep on the warm cache, as ``repro eval
        --cache-dir`` runs it; returns the canonical metrics digest."""
        cache = SubjectArtifactCache(os.path.join(self.directory, "cache"))
        suite = run_suite(SUITE_SUBJECT, cache=cache,
                          params=SuiteParams(rng_seed=self.seed))
        if cache.misses or cache.hits != 1:
            raise CheckFailed("long-input: the artifact cache was not warm "
                              "({} hits, {} misses)"
                              .format(cache.hits, cache.misses))
        got = asdict(suite.metrics[SUITE_SUBJECT])
        expected = self.baseline[SUITE_SUBJECT]
        for key in got.keys() if self.seed == 0 else SEED_FREE_FIELDS:
            if got[key] != expected[key]:
                raise CheckFailed("long-input {} {}: {!r} != baseline {!r}"
                                  .format(SUITE_SUBJECT, key, got[key],
                                          expected[key]))
        return hashlib.sha256(canonical_metrics_bytes(suite)).hexdigest()

    def long_input(self, grammar, inputs, expected, oracle_queries):
        calls = self.program_calls
        attempted = failed = 0
        charged = 0.0
        longest = None
        stopped = False
        wall, cpu = time.perf_counter(), time.process_time()
        # (a) recognize and parse over the length ladder.
        for text, verdict in zip(inputs, expected):
            size = len(text)
            recognized_s = DEADLINE_S
            for op in (earley.recognize, earley.parse):
                attempted += 1
                if stopped:
                    failed += 1
                    charged += DEADLINE_S
                    continue
                start = time.perf_counter()
                try:
                    out = with_deadline(DEADLINE_S, op, grammar, text)
                except (DeadlineMiss, Exception):
                    failed += 1
                    charged += DEADLINE_S
                    stopped = True
                    continue
                took = time.perf_counter() - start
                charged += took
                if op is earley.recognize:
                    recognized_s = took
                got = out if op is earley.recognize else out is not None
                if got != verdict:
                    raise CheckFailed(
                        "long-input n={}: {} says {}, grep accepts says {}"
                        .format(size, op.__name__, got, verdict))
            self.ladder_s[size] = recognized_s
            if not stopped:
                longest = text
        # (b) the grammar fuzzer, seeded with the longest passing input.
        attempted += 1
        start = time.perf_counter()
        try:
            if longest is None:
                raise ValueError("no ladder input passed")
            with_deadline(FUZZ_DEADLINE_S, self.fuzz, grammar, longest)
            charged += time.perf_counter() - start
        except CheckFailed:
            raise
        except (DeadlineMiss, Exception):
            failed += 1
            charged += FUZZ_DEADLINE_S
        # (c) every subject's accepts over its nesting-depth ladder.
        for name in SUBJECT_NAMES:
            accepts = get_subject(name).accepts
            for depth in DEPTHS:
                attempted += 1
                start = time.perf_counter()
                try:
                    ok = with_deadline(DEADLINE_S, accepts,
                                       NESTING[name](depth))
                except (DeadlineMiss, Exception):
                    failed += 1
                    charged += DEADLINE_S
                    continue
                charged += time.perf_counter() - start
                if depth == DEPTHS[0] and not ok:
                    raise CheckFailed("long-input: {} rejects its legal "
                                      "depth-{} input".format(name, depth))
        # (d) grep's evaluation metrics, derived from its cached artifact.
        attempted += 1
        start = time.perf_counter()
        digest = self.suite()
        charged += time.perf_counter() - start
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return {
            "wall_s": charged,
            "elapsed_s": wall,
            "cpu_s": cpu,
            "attempted": attempted,
            "failed": failed,
            "program_calls": self.program_calls - calls,
            "oracle_queries": oracle_queries,
            "max_ok_len": len(longest) if longest else 0,
            "digest": digest,
        }

    def fuzz(self, grammar, longest: str) -> None:
        rng = random.Random("long-input-fuzz:{}".format(self.seed))
        fuzzer = GrammarFuzzer(grammar, [longest], rng)
        for sample in fuzzer.generate(FUZZ_SAMPLES):
            if not isinstance(sample, str):
                raise CheckFailed("long-input: fuzzer produced {!r}"
                                  .format(sample))


def timed(workload: str, directory: str, seed: int, seconds: float,
          iterations: Optional[int], recorder: Optional[Recorder]):
    run = Run(workload, directory, seed, recorder)
    if workload == "long-input":
        artifact = SubjectArtifactCache(
            os.path.join(directory, "cache")
        ).lookup(get_subject("grep"))
        if artifact is None:
            raise CheckFailed("long-input: no cached grep artifact")
        grammar = artifact.require_grammar()
        if grammar_digest(grammar) != run.baseline["grep"]["grammar_digest"]:
            raise CheckFailed("long-input: grep grammar digest differs")
        inputs = ladder_inputs(seed)
        grep = get_subject("grep").accepts
        expected = [grep(text) for text in inputs]
        if not all(expected):
            raise CheckFailed("long-input: a ladder input is not legal")

        def iteration():
            return run.long_input(grammar, inputs, expected,
                                  artifact.oracle_queries)
    else:
        iteration = run.learn_out
    names = {
        "learn-out": LEARN_SUBJECTS,
        "long-input": SUBJECT_NAMES,
    }[workload]
    try:
        run.count_program_calls(names)
        if recorder is not None:
            recorder.origin = recorder.clock()
            run.instrument()
        results = []
        begin = time.perf_counter()
        while True:
            results.append(iteration())
            used = time.perf_counter() - begin
            typical = statistics.median(r["elapsed_s"] for r in results)
            if iterations is not None:
                if len(results) >= iterations:
                    break
            elif used + typical > seconds:
                break
    finally:
        run.patches.restore()
    return run, results


def summarize(run: Run, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    digests = {r["digest"] for r in results if "digest" in r}
    if len(digests) > 1:
        raise CheckFailed("long-input: canonical metrics differ between "
                          "iterations")
    for key in ("program_calls", "oracle_queries"):
        values = {r.get(key) for r in results}
        if len(values) > 1:
            raise CheckFailed("{} differs between iterations: {}"
                              .format(key, sorted(values)))
    first = results[0]
    return {
        "iterations": len(results),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "elapsed_s": statistics.median(r["elapsed_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "program_calls": first["program_calls"],
        "oracle_queries": first["oracle_queries"],
        "max_ok_len": min(r.get("max_ok_len", 0) for r in results),
        "digest": digests.pop() if digests else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_iteration": results,
    }


# -- per-layer metrics of a traced run ---------------------------------------

#: Layers, by the module whose public functions the spans wrap.
LAYERS = (
    "core.pipeline.learn",
    "core.phase2.plan",
    "languages.engine",
    "programs",
    "programs.coverage",
    "artifacts.store.save",
    "artifacts.store.load",
    "evaluation.harness.derive",
    "languages.earley.recognize",
    "languages.earley.parse",
    "languages.sampler",
    "fuzzing.grammar_fuzzer.init",
    "fuzzing.grammar_fuzzer.generate",
)
#: Layers that report median and tail latency.
LATENCY_LAYERS = (
    "programs",
    "languages.engine",
    "artifacts.store.save",
    "languages.earley.recognize",
    "languages.sampler",
    "fuzzing.grammar_fuzzer.generate",
)


def layer_metrics(run: Run, summary: Dict[str, Any]) -> Dict[str, float]:
    rec = run.recorder

    def layer(name: str) -> LayerStats:
        return rec.layers.get(name) or LayerStats()

    programs = layer("programs")
    learn = layer("core.pipeline.learn")
    engine = layer("languages.engine")
    save = layer("artifacts.store.save")
    recognize = layer("languages.earley.recognize")
    parse = layer("languages.earley.parse")
    fuzz_init = layer("fuzzing.grammar_fuzzer.init")
    generate = layer("fuzzing.grammar_fuzzer.generate")
    coverage = layer("programs.coverage")
    sampler = layer("languages.sampler")
    out: Dict[str, float] = {
        "programs.calls": programs.calls,
        "programs.s": programs.total_s,
        "programs.errors": programs.errors,
        "learning.oracle.hit_ratio": (
            1.0 - summary["program_calls"] / summary["oracle_queries"]
            if run.workload == "learn-out" else 0.0
        ),
        "core.phase1_s": run.timings.get("phase1", 0.0),
        "core.phase2_s": run.timings.get("phase2", 0.0),
        "core.phase2.plan_s": layer("core.phase2.plan").total_s,
        "core.self_s": (
            learn.total_s - programs.total_s - save.total_s - engine.total_s
            if learn.calls else 0.0
        ),
        "languages.engine.calls": engine.calls,
        "languages.engine.s": engine.total_s,
        "artifacts.store.saves": save.calls,
        "artifacts.store.save_s": save.total_s,
        "artifacts.store.bytes": run.store_bytes,
        "artifacts.store.load_s": layer("artifacts.store.load").total_s,
        "languages.earley.recognize_calls": recognize.calls,
        "languages.earley.recognize_s": recognize.total_s,
        "languages.earley.recognize_chars": recognize.chars,
        "languages.earley.parse_calls": parse.calls,
        "languages.earley.parse_s": parse.total_s,
        "languages.earley.parse_chars": parse.chars,
        "languages.sampler.samples": sampler.calls,
        "languages.sampler.s": sampler.total_s,
        "fuzzing.grammar_fuzzer.init_s": fuzz_init.total_s,
        "fuzzing.grammar_fuzzer.generate_calls": generate.calls,
        "fuzzing.grammar_fuzzer.generate_s": generate.total_s,
        "programs.coverage.calls": coverage.calls,
        "programs.coverage.s": coverage.total_s,
        "max_ok_len": summary["max_ok_len"],
        "fail_frac": summary["failed"] / summary["attempted"],
        "trace.wall_s": summary["elapsed_s"],
        "unattributed_s": summary["elapsed_s"] - rec.self_seconds(),
    }
    for size in LADDER:
        out["languages.earley.recognize.n{}_s".format(size)] = (
            run.ladder_s.get(size, 0.0)
        )
    for name in LEARN_SUBJECTS:
        out["core.pipeline.learn.{}_s".format(name)] = (
            learn.by_label.get(name, 0.0)
        )
    out["evaluation.harness.derive.{}_s".format(SUITE_SUBJECT)] = (
        layer("evaluation.harness.derive").by_label.get(SUITE_SUBJECT, 0.0)
    )
    for name in LAYERS:
        out[name + ".self_s"] = layer(name).self_s
    for name in LATENCY_LAYERS:
        p50, tail, pct = layer(name).latency()
        out[name + ".p50_ms"] = p50
        out[name + ".tail_ms"] = tail
        out[name + ".tail_pct"] = pct
    return out


def layer_table(run: Run) -> List[Dict[str, Any]]:
    """One row per layer: calls, inclusive and self seconds."""
    return [
        {
            "layer": name,
            "calls": stats.calls,
            "total_s": stats.total_s,
            "self_s": stats.self_s,
        }
        for name, stats in sorted(run.recorder.layers.items())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--trace")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.dir)
        return 0
    recorder = Recorder() if args.trace else None
    try:
        run, results = timed(args.workload, args.dir, args.seed,
                             args.seconds, args.iterations, recorder)
        summary = summarize(run, results)
    except CheckFailed as failure:
        print("output check failed: {}".format(failure), file=sys.stderr)
        return 3
    if recorder is not None:
        recorder.write_chrome_trace(args.trace)
        summary["per_layer"] = layer_metrics(run, summary)
        summary["layers"] = layer_table(run)
    with open(args.out, "w") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
