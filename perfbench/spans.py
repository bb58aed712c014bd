"""Span tracing of the xpcfg layers from outside the package.

Each traced function is wrapped at every module attribute that is bound to
it, because callers look functions up through their own module globals:
``train`` reaches the inside pass as ``xpcfg.training.cyk_fill`` and
``evaluate_corpus`` as ``xpcfg.scoring.cyk_fill``.  Nothing in ``src/`` is
edited; the wrappers are removed again when tracing stops.

A span records (name, start, end, parent).  Spans are kept in memory and
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time

# (defining module, function) -> span name.  The span name's first part is
# the layer (module) that the time is booked to.
TRACED = {
    ("xpcfg.grammar", "parse_grammar"): "grammar.parse_grammar",
    ("xpcfg.grammar", "compile_cnf"): "grammar.compile_cnf",
    ("xpcfg.constraints", "enumerate_implicit"): "constraints.enumerate_implicit",
    ("xpcfg.constraints", "build_implicit_grammar"): "constraints.build_implicit_grammar",
    ("xpcfg.generate", "sample_corpus"): "generate.sample_corpus",
    ("xpcfg.generate", "sample_palindromes"): "generate.sample_palindromes",
    ("xpcfg.generate", "ergodic_grammar"): "generate.ergodic_grammar",
    ("xpcfg.chart", "cyk_fill"): "chart.inside",
    ("xpcfg.chart", "viterbi_parse"): "chart.viterbi",
    ("xpcfg.chart", "count_parses"): "chart.count",
    ("xpcfg.chart", "parse_report"): "chart.parse_report",
    ("xpcfg.chart", "format_tree"): "chart.format",
    ("xpcfg.chart", "format_report"): "chart.format",
    ("xpcfg.training", "train"): "training.train",
    ("xpcfg.training", "coverage"): "training.coverage",
    ("xpcfg.training", "outside_fill"): "training.outside",
    ("xpcfg.training", "expected_counts"): "training.counts",
    ("xpcfg.training", "reestimate"): "training.mstep",
    ("xpcfg.training", "prune"): "training.prune",
    ("xpcfg.metrics", "entropy"): "metrics.entropy",
    ("xpcfg.scoring", "evaluate_corpus"): "scoring.evaluate",
}

INT64_MAX = 2 ** 63 - 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs span-recording wrappers and books work counts per layer."""

    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index or -1)
        self.stack = []
        self.counts = dict.fromkeys(
            ("inside_words", "cells", "rule_apps", "viterbi_words", "count_words",
             "count_overflow_sentences", "outside_words", "counts_words"), 0)
        self.train_facts = {}
        self.absent = []
        self._installed = []   # (module, attribute, original)
        self._live = {}        # id(grammar) -> (grammar, live binary rules)
        self.section = None    # [start_ns, end_ns] of the traced block

    # -- work counts, booked where the work happens ------------------------

    def _live_binary(self, grammar):
        hit = self._live.get(id(grammar))
        if hit is None or hit[0] is not grammar:
            hit = (grammar, sum(1 for r in grammar.binary if r.prob > 0.0))
            self._live[id(grammar)] = hit
        return hit[1]

    def _on_inside(self, args, kwargs, result):
        n = len(_arg(args, kwargs, 1, "tokens"))
        c = self.counts
        c["inside_words"] += n
        c["cells"] += n * (n + 1) // 2
        # cells x split points x live binary rules = C(n+1, 3) * |R|
        c["rule_apps"] += (n + 1) * n * (n - 1) // 6 * self._live_binary(
            _arg(args, kwargs, 0, "grammar"))

    def _on_viterbi(self, args, kwargs, result):
        self.counts["viterbi_words"] += _arg(args, kwargs, 0, "chart").n

    def _on_count(self, args, kwargs, result):
        self.counts["count_words"] += _arg(args, kwargs, 0, "chart").n
        if result > INT64_MAX:
            self.counts["count_overflow_sentences"] += 1

    def _on_outside(self, args, kwargs, result):
        self.counts["outside_words"] += len(_arg(args, kwargs, 1, "tokens"))

    def _on_counts(self, args, kwargs, result):
        self.counts["counts_words"] += len(_arg(args, kwargs, 1, "tokens"))

    def _on_train(self, args, kwargs, result):
        corpus = [tuple(s) for s in _arg(args, kwargs, 1, "corpus")]
        self.train_facts = {
            "em_iterations": result.iterations,
            "live_rules_final": result.nonzero_rules[-1],
            "distinct_ratio": len(set(corpus)) / len(corpus),
        }

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, on_return):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        hooks = {
            "chart.inside": self._on_inside,
            "chart.viterbi": self._on_viterbi,
            "chart.count": self._on_count,
            "training.outside": self._on_outside,
            "training.counts": self._on_counts,
            "training.train": self._on_train,
        }
        modules = [m for k, m in sys.modules.items()
                   if (k == "xpcfg" or k.startswith("xpcfg.")) and m is not None]
        self.absent = []
        for (module_name, attr), span in TRACED.items():
            fn = getattr(importlib.import_module(module_name), attr, None)
            if not callable(fn):
                self.absent.append("%s.%s" % (module_name, attr))
                continue
            wrapper = self._wrap(span, fn, hooks.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._installed.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        return self

    def remove(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed = []

    def __enter__(self):
        self.install()
        self.section = [time.perf_counter_ns(), None]
        return self

    def __exit__(self, *exc):
        self.section[1] = time.perf_counter_ns()
        self.remove()
        return False

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Self time in seconds of each span, in span order."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start - child[i]) / 1e9
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def coverage(self):
        """Share of the traced section's wall time inside outermost spans."""
        begin, finish = self.section
        covered = sum(end - start for name, start, end, parent in self.spans if parent < 0)
        return covered / (finish - begin)

    def dump(self):
        """Spans as JSON-ready rows, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [[name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans]
