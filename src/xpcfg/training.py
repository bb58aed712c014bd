"""Inside-outside re-estimation of CNF PCFG probabilities on an unbracketed
corpus, with per-iteration pruning and convergence control.

Expected rule counts come from one reverse pass over the inside chart, which
fills outside values in the chart's scaled mantissa/log-scale representation
and books each rule application's count as it goes.  Counts are summed per
sentence in corpus order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import NEG_INF, NoParseError, ParseError, cyk_fill
from .grammar import BinaryRule, CnfGrammar, GrammarError, LexRule
from .metrics import corpus_logprobs


@dataclass
class TrainConfig:
    max_iterations: int = 30
    convergence_tol: float = 1e-4
    prune_threshold: float = 1e-5
    skip_unparseable: bool = True

    def validate(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.convergence_tol <= 0:
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


def expected_counts(grammar, tokens, chart=None):
    """Expected usage count per rule for one sentence, indexed by rule id.

    count(r) = sum over applications of r of
        outside(mother) * prob(r) * inside(daughters) / inside(root).

    One reverse pass over the chart, widest spans first, pulls each cell's
    outside values from its parents: those where the cell is the left
    daughter and those where it is the right one, gathered in one array under
    one shared scale.  Every binary application has exactly one left
    daughter, so the same step books the counts of the applications whose
    left daughter is the cell.  outside(0, n, root) = 1.
    """
    if chart is None:
        chart = cyk_fill(grammar, tokens)
    root_lp = chart.sentence_logprob()
    if root_lp == NEG_INF:
        raise NoParseError("expected counts undefined: sentence has no parse")
    idx = chart.index
    n = chart.n
    in_m, in_s = chart.inside_m, chart.inside_s
    out_m = np.zeros_like(in_m)
    out_s = np.zeros_like(in_s)
    out_m[0, n, idx.root_i] = 1.0
    counts = np.zeros(len(grammar.rules()))

    for span in range(n - 1, 0, -1):
        for i in range(0, n - span + 1):
            k = i + span
            if in_m[i, k].max() == 0.0:
                continue  # in no derivation, so its outside value is never used
            # rows: parents (i, kk) with right sibling (k, kk), then parents
            # (hh, k) with left sibling (hh, i)
            left = n - k
            kks, hhs = np.arange(k + 1, n + 1), np.arange(i)
            par = (np.concatenate((np.full(left, i), hhs)), np.concatenate((kks, np.full(i, k))))
            sib = (np.concatenate((np.full(left, k), hhs)), np.concatenate((kks, np.full(i, i))))
            parents, siblings = out_m[par], in_m[sib]
            valid = (parents.max(axis=1) > 0.0) & (siblings.max(axis=1) > 0.0)
            if not valid.any():
                continue
            s = np.where(valid, out_s[par] + in_s[sib], NEG_INF)
            top = s.max()
            up = np.exp(s - top)[:, None] * parents[:, idx.bin_a]
            as_left = (up[:left] * siblings[:left, idx.bin_c]).sum(axis=0) * idx.bin_p
            as_right = (up[left:] * siblings[left:, idx.bin_b]).sum(axis=0) * idx.bin_p
            cell = idx.group_b @ as_left + idx.group_c @ as_right
            peak = cell.max()
            if peak > 0.0:
                out_m[i, k] = cell / peak
                out_s[i, k] = top + math.log(peak)

            # contributions are exponentiated only after their (bounded) logs
            # are assembled, so very long, very improbable sentences cannot
            # overflow intermediate factors
            contrib = as_left * in_m[i, k, idx.bin_b]
            pos = contrib > 0.0
            if not pos.any():
                continue
            scale = top + in_s[i, k] - root_lp
            if scale <= 0.0:
                counts[idx.bin_rid[pos]] += contrib[pos] * math.exp(scale)
            else:
                counts[idx.bin_rid[pos]] += np.exp(np.log(contrib[pos]) + scale)
    for i, tok in enumerate(tokens):
        base = out_s[i, i + 1] - root_lp
        for a, p, rid in idx.lex[tok]:
            m = out_m[i, i + 1, a]
            if m > 0.0:
                counts[rid] += math.exp(math.log(p) + math.log(m) + base)
    return counts


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
    """
    if threshold <= 0.0:
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
    """Corpus E-step: summed counts, log-likelihood, skipped-sentence count."""
    counts = np.zeros(len(grammar.rules()))
    ll = 0.0
    skipped = 0
    for tokens in corpus:
        try:
            chart = cyk_fill(grammar, tokens)
        except ParseError:
            skipped += 1
            continue
        lp = chart.sentence_logprob()
        if lp == NEG_INF:
            skipped += 1
            continue
        ll += lp
        counts += expected_counts(grammar, tokens, chart)
    return counts, ll, skipped


def train(grammar, corpus, config=None):
    """Run inside-outside re-estimation until the corpus log-likelihood
    stabilises or the iteration cap is reached."""
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
            if skipped and not config.skip_unparseable:
                raise NoParseError("corpus contains unparseable sentences")
        report.log_likelihoods.append(ll)
        report.skipped = skipped
        current = reestimate(current, counts)
        current, pruned = prune(current, config.prune_threshold)
        ne, ni = current.nonzero_counts()
        report.nonzero_rules.append(ne + ni)
        if pruned:
            report.prune_events.append(it)
        report.iterations = it
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
    """Write one rule per line:

        M --> D1 D2 <prob> <explicit|implicit>
        M --> word # <prob> <explicit|implicit>
    """
    lines = []
    for r in grammar.binary:
        if include_zero or r.prob > 0.0:
            lines.append("%s --> %s %s %.8f %s" % (r.mother, r.left, r.right, r.prob, r.origin))
    for r in grammar.lexical:
        if include_zero or r.prob > 0.0:
            lines.append("%s --> %s # %.8f %s" % (r.mother, r.word, r.prob, r.origin))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def parse_rules(text, root=None):
    """Load a rule-per-line grammar; '#' lines and blank lines are ignored.

    Probabilities are taken verbatim (no renormalisation), so fixtures round
    -trip exactly.  The default root is the first rule's mother.
    """
    binary, lexical = [], []
    seen_rules = set()  # (mother, left, right) or (mother, word, "#")
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
    return CnfGrammar(nts, terms, binary, lexical, root)


def load_rules(path, root=None):
    with open(path) as fh:
        return parse_rules(fh.read(), root=root)
