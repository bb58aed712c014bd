"""Inside-outside re-estimation of CNF PCFG probabilities on an unbracketed
corpus, with per-iteration pruning and convergence control.

Each E-step walks the distinct sentences of the corpus, batched by length
(chart.batches).  Expected rule counts come from the chart module's
reverse pass over each batch (chart.batch_counts), which fills outside values
in the chart's scaled representation and books each rule application's
count, times the sentence's multiplicity in the corpus, as it goes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chart import NEG_INF, NoParseError, batch_counts, batches
from .chart import expected_counts  # noqa: F401  (re-exported: per-sentence counts)
from .grammar import BinaryRule, CnfGrammar, GrammarError, LexRule
from .metrics import corpus_logprobs


@dataclass
class TrainConfig:
    max_iterations: int = 30
    convergence_tol: float = 1e-4
    prune_threshold: float = 1e-5

    def validate(self):
        # each check is written so that NaN fails it
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be positive")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in [0, 1)")


@dataclass
class TrainReport:
    log_likelihoods: list = field(default_factory=list)
    nonzero_rules: list = field(default_factory=list)
    prune_events: list = field(default_factory=list)  # iterations where pruning zeroed rules
    grammar: CnfGrammar | None = None
    iterations: int = 0
    converged: bool = False
    skipped: int = 0
    coverage_before: float = 0.0
    coverage_after: float = 0.0


@dataclass
class IterationReport:
    """One EM iteration as train() passes it to on_iteration: the corpus
    log-likelihood and skipped sentences of its E-step, the live rules after
    its M-step and prune, and whether the prune zeroed any rule."""
    iteration: int
    log_likelihood: float
    skipped: int
    explicit_rules: int
    implicit_rules: int
    pruned: bool


def reestimate(grammar, counts):
    """Maximum-likelihood update: prob(r) = count(r) / total count of rules
    sharing r's mother.  Mothers with zero total keep their distribution."""
    rules = grammar.rules()
    totals = {}
    for i, r in enumerate(rules):
        totals[r.mother] = totals.get(r.mother, 0.0) + counts[i]
    probs = []
    for i, r in enumerate(rules):
        t = totals[r.mother]
        probs.append(counts[i] / t if t > 0.0 else r.prob)
    return grammar.replace_probs(probs)


def prune(grammar, threshold):
    """Zero rules below the probability threshold and renormalise per mother.

    Returns (grammar, changed); grammars never regain zeroed rules.
    Raises ValueError unless 0 <= threshold < 1.
    """
    if not 0.0 <= threshold < 1.0:  # written so that NaN fails
        raise ValueError("prune threshold must lie in [0, 1), not %r" % threshold)
    if threshold == 0.0:
        return grammar, False
    rules = grammar.rules()
    keep = [r.prob if r.prob >= threshold else 0.0 for r in rules]
    changed = any(k == 0.0 and r.prob > 0.0 for k, r in zip(keep, rules))
    if not changed:
        return grammar, False
    totals = {}
    for p, r in zip(keep, rules):
        totals[r.mother] = totals.get(r.mother, 0.0) + p
    probs = [p / totals[r.mother] if totals[r.mother] > 0.0 else 0.0
             for p, r in zip(keep, rules)]
    return grammar.replace_probs(probs), True


def _estep(grammar, corpus):
    """Corpus E-step: summed counts, log-likelihood, skipped-sentence count.
    Each distinct sentence is parsed once and weighted by its multiplicity."""
    counts = np.zeros(len(grammar.rules()))
    ll = 0.0
    parsed = 0
    freq = Counter(map(tuple, corpus))
    for batch in batches(grammar, freq):
        weights = [freq[tokens] for tokens in batch.sentences]
        for lp, w in zip(batch.logprobs, weights):
            if lp != NEG_INF:
                ll += w * lp
                parsed += w
        batch_counts(grammar, batch, weights, counts)
    return counts, ll, len(corpus) - parsed


def train(grammar, corpus, config=None, on_iteration=None):
    """Run inside-outside re-estimation until the corpus log-likelihood
    stabilises or the iteration cap is reached.  on_iteration, if given, is
    called with an IterationReport as each iteration ends."""
    config = config or TrainConfig()
    config.validate()
    corpus = [list(s) for s in corpus]
    if not corpus:
        raise ValueError("empty training corpus")

    report = TrainReport()
    current = grammar
    prev_ll = None
    for it in range(1, config.max_iterations + 1):
        counts, ll, skipped = _estep(current, corpus)
        if it == 1:
            report.coverage_before = (len(corpus) - skipped) / len(corpus)
            if skipped == len(corpus):
                raise NoParseError("no sentence in the corpus is parseable by the grammar")
        report.log_likelihoods.append(ll)
        report.skipped = skipped
        current = reestimate(current, counts)
        current, pruned = prune(current, config.prune_threshold)
        ne, ni = current.nonzero_counts()
        report.nonzero_rules.append(ne + ni)
        if pruned:
            report.prune_events.append(it)
        report.iterations = it
        if on_iteration is not None:
            on_iteration(IterationReport(it, ll, skipped, ne, ni, pruned))
        if prev_ll is not None and abs(ll - prev_ll) <= config.convergence_tol * abs(prev_ll):
            report.converged = True
            break
        prev_ll = ll

    report.grammar = current
    parsed = sum(lp != NEG_INF for lp in corpus_logprobs(current, corpus))
    report.coverage_after = parsed / len(corpus)
    return report


# ---------------------------------------------------------------------------
# Rule-per-line serialisation (the trained-grammar interchange format)

def save_rules(grammar, path, include_zero=False):
    """Write the root, then one rule per line:

        # root R
        M --> D1 D2 <prob> <explicit|implicit>
        M --> word # <prob> <explicit|implicit>

    Probabilities are written in full, so loading the file gives them back.
    """
    lines = ["# root %s" % grammar.root]
    for r in grammar.binary:
        if include_zero or r.prob > 0.0:
            lines.append("%s --> %s %s %r %s" % (r.mother, r.left, r.right, float(r.prob), r.origin))
    for r in grammar.lexical:
        if include_zero or r.prob > 0.0:
            lines.append("%s --> %s # %r %s" % (r.mother, r.word, float(r.prob), r.origin))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def parse_rules(text, root=None):
    """Load a rule-per-line grammar; '#' lines and blank lines are ignored.

    Probabilities are taken verbatim (no renormalisation), so fixtures round
    -trip exactly, but each mother's must sum to 1 within 1e-6, or to 0 when
    all its rules are zero.  The default root is the one a first line
    '# root R' names, else the first rule's mother.
    """
    head = text.split("\n", 1)[0].split()
    if root is None and len(head) == 3 and head[:2] == ["#", "root"]:
        root = head[2]
    binary, lexical = [], []
    seen_rules = set()  # (mother, left, right) or (mother, word, "#")
    first_line = {}  # mother -> line of its first rule
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6 or parts[1] != "-->":
            raise GrammarError("bad rule line: %r" % line, lineno)
        mother, _, d1, d2, prob_s, origin = parts
        if origin not in ("explicit", "implicit"):
            raise GrammarError("bad origin %r" % origin, lineno)
        try:
            prob = float(prob_s)
        except ValueError:
            raise GrammarError("bad probability %r" % prob_s, lineno) from None
        if not 0.0 <= prob <= 1.0:
            raise GrammarError("probability %g outside [0, 1]" % prob, lineno)
        if (mother, d1, d2) in seen_rules:
            raise GrammarError("duplicate rule %s --> %s %s" % (mother, d1, d2), lineno)
        seen_rules.add((mother, d1, d2))
        first_line.setdefault(mother, lineno)
        if d2 == "#":
            lexical.append(LexRule(mother, d1, prob, origin))
        else:
            binary.append(BinaryRule(mother, d1, d2, prob, origin))
    if not binary and not lexical:
        raise GrammarError("no rules found")

    nts, seen = [], set()
    for r in binary:
        for sym in (r.mother, r.left, r.right):
            if sym not in seen:
                seen.add(sym)
                nts.append(sym)
    for r in lexical:
        if r.mother not in seen:
            seen.add(r.mother)
            nts.append(r.mother)
    terms, seen_t = [], set()
    for r in lexical:
        if r.word not in seen_t:
            seen_t.add(r.word)
            terms.append(r.word)
    if root is None:
        root = binary[0].mother if binary else lexical[0].mother
    grammar = CnfGrammar(nts, terms, binary, lexical, root)
    for mother, total in grammar.mother_totals().items():
        # a mother whose rules were all pruned away keeps a total of zero
        if total != 0.0 and abs(total - 1.0) > 1e-6:
            raise GrammarError("probabilities of %s sum to %.9g, not 1" % (mother, total),
                               first_line[mother])
    return grammar


def load_rules(path, root=None):
    with open(path) as fh:
        return parse_rules(fh.read(), root=root)
