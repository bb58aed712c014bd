"""xpcfg benchmark: two EM-training workloads and one parse-and-score workload.

    python3 perfbench/run.py --workload xbar-em --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in this one process as a closed loop with one
client and one thread (BLAS pinned to one thread).  The program's set-up
runs once and the seed's inputs are built from it, untimed.  Then one
repetition (main phase, score phase, with timed set-ups before it and at
the breaks between its timed passes) runs, and more follow while the next
one still fits in ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced.  With ``--trace 1`` one untraced and one traced
repetition run on the same inputs, then untraced and traced sentences
alternate to measure the tracing overhead, and the line carries the
per-layer metrics (see spans.py).  The line before it is the run record: host,
provenance, gate results and exact counts.  The record, plus the spans of a
traced run, is also written under perfbench/out/.  See README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# Host speed drifts by up to 2x over tens of seconds, so every metric is
# sampled all through the run rather than in one burst: the set-up runs
# SETUPS_PER_BREAK times before each repetition and at each break between
# its timed passes (setup_s is the median of all of them), and the EM
# workloads score in passes for the workload's score_seconds.
SETUPS_PER_BREAK = 8
# the traced run's overhead is measured over whole latency passes for at
# least this long
OVERHEAD_SECONDS = 6.0
clock = time.perf_counter

# filled by load_program(); the benchmark calls through module attributes so
# that the traced run's wrappers are seen
xp = None


def load_program():
    global xp
    if not (SRC / "xpcfg" / "__init__.py").is_file():
        sys.exit("perfbench: no program sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import numpy
    import xpcfg
    from xpcfg import chart, constraints, fixtures, generate, grammar, metrics, scoring, training
    if Path(xpcfg.__file__).resolve().parent != (SRC / "xpcfg").resolve():
        sys.exit("perfbench: imported xpcfg from %s, not from %s" % (xpcfg.__file__, SRC))
    xp = argparse.Namespace(numpy=numpy, chart=chart, constraints=constraints,
                            fixtures=fixtures, generate=generate, grammar=grammar,
                            metrics=metrics, scoring=scoring, training=training)


# ---------------------------------------------------------------------------
# Inputs

def profiled_corpus(draw, template, seed):
    """The corpus for a non-zero seed offset.

    It keeps the base corpus's sentence lengths, in order, and draws a fresh
    sentence of each length from the same grammar.  Parse cost is set mostly
    by sentence length, so seeds change the sentences without moving the
    cost, and timings stay comparable across seeds.
    """
    need = Counter(len(s) for s in template)
    longest = max(need)
    pool = {}
    rounds = 0
    while any(len(pool.get(n, ())) < k for n, k in need.items()):
        for s in draw(2000, seed * 100_003 + rounds, longest):
            bucket = pool.setdefault(len(s), [])
            if len(bucket) < need.get(len(s), 0):
                bucket.append(s)
        rounds += 1
    return [pool[len(s)].pop() for s in template]


def uniform_probabilities(g):
    """The grammar with its probability annotations removed, as in the
    criterion-5 experiment: compilation fills each mother uniformly."""
    return xp.grammar.Grammar(
        features=g.features, aliases=g.aliases,
        ps_rules=[replace(r, prob=None) for r in g.ps_rules],
        words=[replace(w, prob=None) for w in g.words],
        constraints=g.constraints)


def xbar_grammars():
    g = xp.grammar.parse_grammar(xp.fixtures.xbar_text())
    cnf = xp.grammar.compile_cnf(g, root="V2")
    implicit = xp.constraints.enumerate_implicit(cnf, g.constraints)
    return g, cnf, implicit


def xbar_draw(cnf):
    return lambda count, seed, max_length: xp.generate.sample_corpus(
        cnf, xp.generate.GenConfig(count=count, seed=seed, max_length=max_length))


@contextlib.contextmanager
def stamped(*sites):
    """Reads the clock at each call of the functions named by sites, a list
    of (module, attribute), while the block runs; yields the list of reads.

    The reads cut one long call, such as train(), into short segments that
    repeat alike in every repetition, so that its time can be taken as the
    sum of each segment's median over repetitions (see whole_phase_s).  The
    wrapper adds one clock read and one list append per call and books no
    spans.  A site that no longer exists is skipped; the call is then cut
    more coarsely, or not at all.
    """
    reads, installed = [], []

    def stamp(original):
        def wrapper(*args, **kwargs):
            reads.append(clock())
            return original(*args, **kwargs)
        return wrapper

    for module, name in sites:
        original = getattr(module, name, None)
        if callable(original):
            setattr(module, name, stamp(original))
            installed.append((module, name, original))
    try:
        yield reads
    finally:
        for module, name, original in installed:
            setattr(module, name, original)


def segments(t0, reads, t1):
    cuts = [t0, *reads, t1]
    return [b - a for a, b in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """setup() is the program's own set-up, timed: grammars and the base
    corpus.  finish() then derives the inputs of a seed once, untimed."""

    def finish(self, inputs, offset):
        if offset:
            inputs["corpus"] = profiled_corpus(inputs["draw"], inputs["corpus"],
                                               self.base_seed + offset)


@dataclass
class Rep:
    """One repetition: main phase, then score phase."""
    main_s: float
    passes: int               # passes over the corpus in the main phase
    score_s: float
    latencies_s: list         # one list per pass: seconds per sentence, in corpus order
    segments_s: list          # the phase timed as a whole, cut at each stamp (see stamped)
    h3a: float
    h3b: float
    failed: int
    outputs: dict             # exact results, compared across reps and to the reference
    grammar: object           # the grammar the timed-per-sentence pass ran on
    checks: dict = field(default_factory=dict)   # name -> bool, or None if not checked


class EmWorkload(Workload):
    """Inside-outside training, then per-sentence entropy of the result.

    The score phase calls entropy() once per sentence, so that it yields
    per-sentence latencies; H3a and H3b are summed from those calls.
    """

    def __init__(self, name, base_seed, count, cap, score_seconds):
        self.name, self.base_seed, self.count, self.cap = name, base_seed, count, cap
        self.score_seconds = score_seconds
        self.config = dict(max_iterations=cap, convergence_tol=1e-4, prune_threshold=1e-5)

    latency_phase = "score"

    @staticmethod
    def latency_pass(grammar, corpus, latency_passes=None):
        """One entropy() call per sentence; appends this pass's latencies."""
        scored, latencies = [], []
        for tokens in corpus:
            a = clock()
            try:
                scored.append(xp.metrics.entropy(grammar, [tokens]))
            except xp.chart.NoParseError:
                scored.append(None)
            latencies.append(clock() - a)
        if latency_passes is not None:
            latency_passes.append(latencies)
        return scored

    def run(self, inputs, score_seconds, between=lambda: None):
        start, corpus = inputs["start"], inputs["corpus"]
        # train() looks the inside pass up here, once per sentence per pass
        with stamped((xp.training, "cyk_fill")) as reads:
            t0 = clock()
            report = xp.training.train(start, corpus, xp.training.TrainConfig(**self.config))
            t1 = clock()
        trained = report.grammar
        latency_passes, score_passes = [], []
        while not score_passes or sum(score_passes) < score_seconds:
            between()
            a = clock()
            scored = self.latency_pass(trained, corpus, latency_passes)
            score_passes.append(clock() - a)
        failed = report.skipped + scored.count(None)
        h3a_terms = [e.h3a for e in scored if e is not None]
        neg_logprob = sum(e.h3a * e.total_words for e in scored if e is not None)
        words = sum(len(s) for s in corpus)
        lls = report.log_likelihoods
        rep = Rep(main_s=t1 - t0, passes=report.iterations,
                  score_s=statistics.median(score_passes),
                  latencies_s=latency_passes, segments_s=segments(t0, reads, t1),
                  h3a=neg_logprob / words,
                  h3b=statistics.fmean(h3a_terms) if h3a_terms else math.inf,
                  failed=failed, grammar=trained,
                  outputs={"iterations": report.iterations, "converged": report.converged,
                           "live_rules_final": report.nonzero_rules[-1],
                           "prune_events": report.prune_events, "final_ll": lls[-1],
                           "skipped": report.skipped})
        rep.checks["no_failed_sentences"] = failed == 0
        rep.checks["normalised"] = all(abs(t - 1.0) <= 1e-9 for t in trained.mother_totals().values())
        # EM never lowers the likelihood, except right after a prune
        rep.checks["ll_monotone"] = all(
            lls[i] >= lls[i - 1] - 1e-9 * abs(lls[i - 1])
            for i in range(1, len(lls)) if i not in report.prune_events)
        return rep


class XbarEm(EmWorkload):
    def setup(self):
        g, cnf, implicit = xbar_grammars()
        start = xp.constraints.build_implicit_grammar(
            xp.grammar.compile_cnf(uniform_probabilities(g), root="V2"), implicit, floor=0.01)
        corpus = xbar_draw(cnf)(self.count, self.base_seed, 100)
        return {"start": start, "corpus": corpus, "draw": xbar_draw(cnf)}

    def gate(self, rep):
        # criterion 5: converged (train stops at the cap), H3a/H3b in the published bands
        return {"converged": rep.outputs["converged"],
                "h3a_band": abs(rep.h3a - 1.5922) <= 0.05,
                "h3b_band": abs(rep.h3b - 1.5690) <= 0.05}


class MirrorEm(EmWorkload):
    def setup(self):
        start = xp.generate.ergodic_grammar(["S", "X", "Y", "A", "B"], ["a", "b"],
                                            root="S", seed=111)
        draw = lambda count, seed, max_length: xp.generate.sample_palindromes(
            count, seed=seed, max_length=max_length)
        return {"start": start, "corpus": draw(self.count, self.base_seed, 120), "draw": draw}

    def gate(self, rep):
        # The criterion-6 bands (H3a 0.6916, H3b 0.7504, +-0.15) are reached
        # only near convergence, about 80 iterations; at the cap the gate is
        # the EM invariants checked in run() plus the recorded reference.
        return {}


class XbarParse(Workload):
    """parse_report on every sentence, formatted as `xpcfg parse` prints it,
    then bracket scoring against gold trees and entropy."""

    cap = None
    score_seconds = None
    latency_phase = "main"

    def __init__(self, name, base_seed, count):
        self.name, self.base_seed, self.count = name, base_seed, count

    def setup(self):
        g, cnf, implicit = xbar_grammars()
        fixed = xp.constraints.build_implicit_grammar(cnf, implicit, floor=0.01)
        corpus = xbar_draw(cnf)(self.count, self.base_seed, 50)
        return {"grammar": fixed, "explicit": cnf, "corpus": corpus, "draw": xbar_draw(cnf)}

    def finish(self, inputs, offset):
        super().finish(inputs, offset)
        inputs["corpus"] += xp.generate.parse_corpus(xp.fixtures.supplementary_text())
        # gold trees: Viterbi parses under the explicit grammar; the
        # supplementary sentences need implicit rules and have none
        cnf = inputs["explicit"]
        inputs["gold"] = []
        for tokens in inputs["corpus"]:
            try:
                inputs["gold"].append(xp.chart.viterbi_parse(xp.chart.cyk_fill(cnf, tokens), cnf)[0])
            except xp.chart.NoParseError:
                pass

    @staticmethod
    def latency_pass(g, corpus):
        """parse_report and formatting of every sentence: the per-sentence
        latencies and the pass's exact results."""
        latencies, printed = [], []
        failed = derivations = overflow = 0
        logprob_sum, max_likelihood = 0.0, 0.0
        for tokens in corpus:
            a = clock()
            try:
                report = xp.chart.parse_report(g, tokens)
            except (xp.chart.ParseError, xp.chart.NoParseError) as exc:
                printed.append("%s\nno parse: %s\n" % (" ".join(tokens), exc))
                latencies.append(clock() - a)
                failed += 1
                continue
            printed.append("%s\n%s\n%s\n" % (" ".join(tokens), xp.chart.format_tree(report.tree),
                                             xp.chart.format_report(report)))
            latencies.append(clock() - a)
            derivations += report.count
            overflow += report.count > 2 ** 63 - 1
            logprob_sum += report.all_log
            max_likelihood = max(max_likelihood, report.likelihood)
        return latencies, {"failed": failed, "derivations_total": derivations,
                           "count_overflow_sentences": overflow, "logprob_sum": logprob_sum,
                           "max_likelihood": max_likelihood,
                           "printed_chars": sum(map(len, printed))}

    def run(self, inputs, score_seconds, between=lambda: None):
        """One parse pass and one score pass; score_seconds is not used."""
        g, corpus = inputs["grammar"], inputs["corpus"]
        t0 = clock()
        latencies, parsed = self.latency_pass(g, corpus)
        main_s = clock() - t0
        between()
        with stamped((xp.scoring, "cyk_fill"), (xp.metrics, "cyk_fill")) as reads:
            t1 = clock()
            score = xp.scoring.evaluate_corpus(g, inputs["gold"])
            ent = xp.metrics.entropy(g, corpus)
            t2 = clock()
        max_likelihood = parsed.pop("max_likelihood")
        rep = Rep(main_s=main_s, passes=1, score_s=t2 - t1, latencies_s=[latencies],
                  segments_s=segments(t1, reads, t2),
                  h3a=ent.h3a, h3b=ent.h3b, failed=parsed.pop("failed") + ent.skipped,
                  grammar=g,
                  outputs=dict(parsed, gold_trees=len(inputs["gold"]),
                               sentences_parsed=score.sentences_parsed,
                               recall=score.recall, precision=score.precision))
        rep.checks["no_failed_sentences"] = rep.failed == 0
        # likelihood = best / all; 1e-12 absorbs rounding when one parse dominates
        rep.checks["likelihood_le_1"] = max_likelihood <= 1.0 + 1e-12
        rep.checks["all_gold_parsed"] = score.sentences_parsed == len(inputs["gold"])
        return rep

    def gate(self, rep):
        return {}


# why each workload: see BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    XbarEm("xbar-em", base_seed=42, count=500, cap=10, score_seconds=1.5),
    MirrorEm("mirror-em", base_seed=11, count=200, cap=2, score_seconds=0.5),
    XbarParse("xbar-parse", base_seed=7, count=1000),
)}

# Exact results compared with the recorded seed-code values: ints exactly,
# floats to rel 1e-9.
REFERENCE_KEYS = {
    "xbar-em": ("iterations", "live_rules_final", "final_ll", "h3a", "h3b"),
    "mirror-em": ("iterations", "live_rules_final", "final_ll", "h3a", "h3b"),
    "xbar-parse": ("derivations_total", "count_overflow_sentences", "logprob_sum", "h3a",
                   "gold_trees"),
}


def comparable(workload, rep):
    values = dict(rep.outputs, h3a=rep.h3a, h3b=rep.h3b)
    return {k: values[k] for k in REFERENCE_KEYS[workload.name]}


def matches(ref, got):
    for k, want in ref.items():
        have = got[k]
        if isinstance(want, float):
            if not math.isclose(have, want, rel_tol=1e-9):
                return False
        elif have != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Host and provenance

def host_record():
    blas = xp.numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": xp.numpy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
            "blas_threads": int(BLAS_THREADS)}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None.  The
    ceiling keeps git from finding a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "xpcfg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics

def tail_percentile(samples, p):
    return statistics.quantiles(samples, n=100)[p - 1]


def whole_phase_s(reps):
    """Time of the phase timed as a whole (train on the EM workloads,
    evaluate_corpus plus entropy on xbar-parse): the sum over its segments of
    each segment's median over repetitions, so that a burst of host noise in
    one repetition's segment is outvoted by the others, as for per-sentence
    latencies.  If the repetitions were not cut alike, the median whole time."""
    cuts = [r.segments_s for r in reps]
    if len({len(c) for c in cuts}) != 1:
        return statistics.median(sum(c) for c in cuts)
    return sum(statistics.median(col) for col in zip(*cuts))


def end_to_end(workload, inputs, setup_times, reps):
    words = sum(len(s) for s in inputs["corpus"])
    sentences = len(inputs["corpus"])
    # each sentence's median over every pass, so that noise cannot reorder
    # sentences of similar cost around a percentile; their sum is the time
    # of the timed-per-sentence phase with bursts of host noise filtered out
    latencies = [statistics.median(col) for col in zip(*(p for r in reps for p in r.latencies_s))]
    if workload.latency_phase == "main":
        pass_s, score_s = sum(latencies), whole_phase_s(reps)
    else:
        pass_s, score_s = whole_phase_s(reps) / reps[0].passes, sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "words_per_s": (words / pass_s, "words/s"),
        "sentences_per_s": (sentences / pass_s, "sentences/s"),
        "sentence_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "sentence_ms_p99": (1e3 * tail_percentile(latencies, 99), "ms"),
        "score_s": (score_s, "s"),
        "h3a": (statistics.median(r.h3a for r in reps), "nats/word"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(setup_trace, tracer, overhead):
    """Per-layer metrics: set-up layers from the traced set-up, the rest from
    the traced repetition, so gold-tree parsing in set-up stays out of the
    chart figures."""
    names = [s[0] for s in tracer.spans]
    dur = [(s[2] - s[1]) / 1e9 for s in tracer.spans]
    c = tracer.counts
    self_times = {id(t): list(zip(t.spans, t.self_times())) for t in (setup_trace, tracer)}

    def self_sum(prefix, trace=tracer):
        return sum(t for s, t in self_times[id(trace)] if s[0].startswith(prefix))

    def incl_sum(name):
        return sum(d for n, d in zip(names, dur) if n == name)

    def per_word(span, words):
        return 1e6 * self_sum(span) / words if words else 0.0

    # E-step: time in train() outside its coverage, M-step and prune children
    booked = {"training.coverage", "training.mstep", "training.prune"}
    estep = sum(d for n, d in zip(names, dur) if n == "training.train")
    estep -= sum(d for (n, _, _, p), d in zip(tracer.spans, dur)
                 if n in booked and p >= 0 and names[p] == "training.train")
    facts = tracer.train_facts
    values = {
        "chart.inside_us_per_word": (per_word("chart.inside", c["inside_words"]), "us/word"),
        "chart.viterbi_us_per_word": (per_word("chart.viterbi", c["viterbi_words"]), "us/word"),
        "chart.count_us_per_word": (per_word("chart.count", c["count_words"]), "us/word"),
        "chart.cells": (c["cells"], "count"),
        "chart.rule_apps": (c["rule_apps"], "count"),
        "chart.count_overflow_sentences": (c["count_overflow_sentences"], "count"),
        "chart.inside_ns_per_rule_app": (
            1e9 * self_sum("chart.inside") / c["rule_apps"] if c["rule_apps"] else 0.0, "ns"),
        "chart.self_s": (self_sum("chart."), "s"),
        "training.outside_us_per_word": (per_word("training.outside", c["outside_words"]),
                                         "us/word"),
        "training.counts_us_per_word": (per_word("training.counts", c["counts_words"]),
                                        "us/word"),
        "training.estep_s": (estep, "s"),
        "training.mstep_s": (incl_sum("training.mstep"), "s"),
        "training.prune_s": (incl_sum("training.prune"), "s"),
        "training.coverage_s": (incl_sum("training.coverage"), "s"),
        "training.em_iterations": (facts.get("em_iterations", 0), "count"),
        "training.live_rules_final": (facts.get("live_rules_final", 0), "count"),
        "training.distinct_ratio": (facts.get("distinct_ratio", 0.0), "ratio"),
        "training.self_s": (self_sum("training."), "s"),
        "grammar.compile_s": (self_sum("grammar.", setup_trace), "s"),
        "constraints.implicit_s": (self_sum("constraints.", setup_trace), "s"),
        "generate.sample_s": (self_sum("generate.", setup_trace), "s"),
        "metrics.entropy_s": (incl_sum("metrics.entropy"), "s"),
        "metrics.self_s": (self_sum("metrics."), "s"),
        "scoring.evaluate_s": (incl_sum("scoring.evaluate"), "s"),
        "scoring.self_s": (self_sum("scoring."), "s"),
        "trace.spans": (len(setup_trace.spans) + len(tracer.spans), "count"),
        "trace.coverage_share": (min(setup_trace.coverage(), tracer.coverage()), "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# Entry point

def spans_not_run(traces):
    """Traced layers that exist but were never called (their metrics read 0)."""
    if not traces:
        return set()
    from spans import TRACED

    absent = {a for t in traces for a in t.absent}
    wanted = {span for (mod, fn), span in TRACED.items() if "%s.%s" % (mod, fn) not in absent}
    return wanted - {s[0] for t in traces for s in t.spans}


def overhead_share(workload, inputs, grammar):
    """Tracing overhead on the workload's timed-per-sentence pass.  Each
    sentence runs untraced and traced back to back, in alternating order, so
    that host drift hits both alike; the share is traced over untraced time,
    minus 1.  Returns the share and the number of passes."""
    from spans import Tracer

    seconds = {False: 0.0, True: 0.0}
    passes = 0
    started = clock()
    while not passes or clock() - started < OVERHEAD_SECONDS:
        for i, tokens in enumerate(inputs["corpus"]):
            for traced in ((False, True) if i % 2 else (True, False)):
                with Tracer() if traced else contextlib.nullcontext():
                    a = clock()
                    workload.latency_pass(grammar, [tokens])
                    seconds[traced] += clock() - a
        passes += 1
    return seconds[True] / seconds[False] - 1.0, passes


def timed_setup(workload):
    gc.collect()        # every set-up starts from the same heap state
    t0 = clock()
    inputs = workload.setup()
    return inputs, clock() - t0


def check_rep(workload, rep, offset, reference):
    checks = dict(rep.checks)
    checks.update(workload.gate(rep))
    # None: no seed-code result is recorded for this seed, so only the
    # invariants above gate the run
    ref = reference.get(workload.name, {}).get(str(offset))
    checks["matches_reference"] = None if ref is None else matches(ref, comparable(workload, rep))
    return checks


def measure(workload, offset, seconds, traced, reference):
    setup_times, traces = [], ()
    if traced:
        from spans import Tracer

        workload.setup()                # first fixture reads and imports, untimed
        gc.collect()
        with Tracer() as setup_trace:
            t0 = clock()
            inputs = workload.setup()
            setup_times.append(clock() - t0)
        workload.finish(inputs, offset)
        # one score pass each, so that the traced work counts repeat exactly
        untraced = workload.run(inputs, score_seconds=0)
        with Tracer() as run_trace:
            rep = workload.run(inputs, score_seconds=0)
        reps, traces = [untraced, rep], (setup_trace, run_trace)
    else:
        inputs, setup_s = timed_setup(workload)
        setup_times.append(setup_s)
        workload.finish(inputs, offset)

        def setup_break():
            for _ in range(SETUPS_PER_BREAK):
                setup_times.append(timed_setup(workload)[1])

        reps = []
        started = clock()
        last = 0.0
        while not reps or clock() - started + last <= seconds:
            a = clock()
            setup_break()
            reps.append(workload.run(inputs, workload.score_seconds, setup_break))
            last = clock() - a

    checks = {}
    for rep in reps:
        for k, ok in check_rep(workload, rep, offset, reference).items():
            checks[k] = None if ok is None else checks.get(k, True) and bool(ok)
    first = comparable(workload, reps[0])
    checks["outputs_repeat"] = all(comparable(workload, r) == first for r in reps)

    overhead = {}
    if traced:
        share, passes = overhead_share(workload, inputs, rep.grammar)
        metrics = per_layer(*traces, share)
        checks["trace_covers_sections"] = metrics["trace.coverage_share"]["value"] >= 0.9
        # the single untraced/traced repetition pair is a noisy cross-check only
        base = untraced.main_s + untraced.score_s
        overhead = {"passes": passes,
                    "repetition_pair_share": (rep.main_s + rep.score_s - base) / base}
    else:
        metrics = end_to_end(workload, inputs, setup_times, reps)
    return inputs, setup_times, reps, checks, metrics, traces, overhead


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to the workload's corpus seed (0 = the paper setting)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    sys.path.insert(0, str(HERE))

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    inputs, setup_times, reps, checks, metrics, traces, overhead = measure(
        workload, args.seed, args.seconds, bool(args.trace), reference)

    corpus = inputs["corpus"]
    attempted = len(corpus) * len(reps)
    failed = sum(r.failed for r in reps)
    correct = all(ok is not False for ok in checks.values())
    if not correct:
        failed = attempted
    record = {
        "workload": workload.name, "trace": args.trace,
        "seed_offset": args.seed, "corpus_seed": workload.base_seed + args.seed,
        "iteration_cap": workload.cap, "run_seconds": args.seconds,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "host": host_record(),
        "corpus": {"sentences": len(corpus), "words": sum(map(len, corpus)),
                   "max_length": max(map(len, corpus)),
                   "distinct": len(set(map(tuple, corpus)))},
        "setups": len(setup_times),
        "reps": [{"main_s": r.main_s, "passes": r.passes, "score_s": r.score_s,
                  "h3a": r.h3a, "h3b": r.h3b, "latency_passes": len(r.latencies_s),
                  "segments": len(r.segments_s),
                  **r.outputs} for r in reps],
        "checks": checks,
        "absent_spans": sorted({a for t in traces for a in t.absent}),
        "spans_not_run": sorted(spans_not_run(traces)),
        "trace_overhead": overhead,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1, default=str) + "\n")
    if traces:
        spans = {"setup": traces[0].dump(), "repetition": traces[1].dump()}
        (OUT / (stem + ".spans.json")).write_text(json.dumps(spans) + "\n")
        for name in record["absent_spans"]:
            print("perfbench: traced function %s is absent" % name, file=sys.stderr)

    print(json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
