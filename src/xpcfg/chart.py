"""CYK packed-chart parsing over CNF PCFGs.

Inside values are kept in an extended-range representation: each span stores
a mantissa vector over nonterminals plus one natural-log scale factor, so
sentence probabilities far below double-precision range stay exact to within
rounding.  Viterbi search runs in the log domain.  Derivation counts are
int64 while a bound shows they cannot overflow, and exact Python integers
from the first span width where it cannot be ruled out.

Every pass fills the chart one span width at a time: the daughters of all
cells of the width are gathered as (cells, splits, nonterminals) blocks and
combined by a few array operations, so no pass loops over cells in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")

# Viterbi score blocks (cells x mothers x rules per mother x splits) are
# tiled to at most this many elements, which bounds the pass's peak memory
# on long sentences
_VITERBI_BLOCK = 2 ** 14


class ParseError(Exception):
    """Unknown token or malformed parse request."""


class NoParseError(Exception):
    """The sentence has no derivation from the root."""


class _Index:
    """Numeric form of a CnfGrammar with zero-probability rules dropped.

    Rule ids refer to positions in grammar.rules() (zero-probability rules
    included), so ids remain stable across re-estimation and pruning.
    """

    def __init__(self, grammar):
        self.grammar = grammar
        self.nts = list(grammar.nonterminals)
        self.nt_i = {a: i for i, a in enumerate(self.nts)}
        self.n_nts = len(self.nts)
        self.root_i = self.nt_i[grammar.root]

        A, B, C, P, rid = [], [], [], [], []
        for i, r in enumerate(grammar.binary):
            if r.prob > 0.0:
                A.append(self.nt_i[r.mother])
                B.append(self.nt_i[r.left])
                C.append(self.nt_i[r.right])
                P.append(r.prob)
                rid.append(i)
        self.bin_a = np.asarray(A, dtype=np.int64)
        self.bin_b = np.asarray(B, dtype=np.int64)
        self.bin_c = np.asarray(C, dtype=np.int64)
        self.bin_p = np.asarray(P, dtype=np.float64)
        self.bin_logp = np.log(self.bin_p) if len(P) else np.zeros(0)
        self.bin_rid = np.asarray(rid, dtype=np.int64)
        # symbol -> rule-position matrices for grouped sums over rule slots in
        # the reverse pass of training
        N, nr = self.n_nts, len(A)
        self.group_b = np.zeros((N, nr), dtype=np.float64)
        self.group_c = np.zeros((N, nr), dtype=np.float64)
        if nr:
            cols = np.arange(nr)
            self.group_b[self.bin_b, cols] = 1.0
            self.group_c[self.bin_c, cols] = 1.0
        # daughter pair (left * N + right) -> mother: rule probabilities and
        # rule multiplicities, for the inside and counting passes
        pair = (self.bin_b * N + self.bin_c, self.bin_a)
        self.pair_p = np.zeros((N * N, N))
        np.add.at(self.pair_p, pair, self.bin_p)
        self.pair_n = np.zeros((N * N, N), dtype=np.int64)
        np.add.at(self.pair_n, pair, 1)
        # each mother's rules in ascending rule-id order, padded to one width
        # with a rule past the last: daughter pairs, log-probabilities (-inf at
        # the pads) and rule ids, for the Viterbi pass
        rules_of = [np.flatnonzero(self.bin_a == a) for a in range(N)]
        self.max_rules = max(len(r) for r in rules_of)
        slots = np.full((N, max(1, self.max_rules)), nr)
        for a, pos in enumerate(rules_of):
            slots[a, :len(pos)] = pos
        self.mother_pair = np.append(pair[0], 0)[slots]
        self.mother_logp = np.append(self.bin_logp, NEG_INF)[slots][:, :, None]
        self.mother_rid = np.append(self.bin_rid, -1)[slots]

        self.lex = {}
        nb = len(grammar.binary)
        for i, r in enumerate(grammar.lexical):
            if r.prob > 0.0:
                self.lex.setdefault(r.word, []).append((self.nt_i[r.mother], r.prob, nb + i))


def _index(grammar):
    idx = getattr(grammar, "_chart_index", None)
    if idx is None or idx.grammar is not grammar:
        idx = _Index(grammar)
        grammar._chart_index = idx
    return idx


class Chart:
    """Packed chart over half-open spans (start, end).

    Cell values are exposed through inside()/inside_log(); Viterbi tables and
    derivation counts are computed lazily on first use.
    """

    def __init__(self, grammar, tokens, inside_m, inside_s):
        self.grammar = grammar
        self.tokens = list(tokens)
        self.n = len(tokens)
        self.index = _index(grammar)
        self.inside_m = inside_m
        self.inside_s = inside_s
        self._vit = None
        self._counts = None

    # -- inside ------------------------------------------------------------

    def inside_log(self, start, end, label):
        a = self.index.nt_i[label]
        m = self.inside_m[start, end, a]
        return NEG_INF if m == 0.0 else math.log(m) + self.inside_s[start, end]

    def inside(self, start, end, label):
        lp = self.inside_log(start, end, label)
        return 0.0 if lp == NEG_INF else math.exp(lp)

    def sentence_logprob(self):
        return self.inside_log(0, self.n, self.grammar.root)

    def sentence_prob(self):
        return self.inside(0, self.n, self.grammar.root)

    # -- Viterbi -----------------------------------------------------------

    def _fill_viterbi(self):
        idx = self.index
        n, N = self.n, idx.n_nts
        vit = np.full((n, n + 1, N), NEG_INF)
        bp_rule = np.full((n, n + 1, N), -1, dtype=np.int64)
        bp_split = np.full((n, n + 1, N), -1, dtype=np.int64)
        for i, tok in enumerate(self.tokens):
            for a, p, rid in idx.lex[tok]:
                lp = math.log(p)
                if lp > vit[i, i + 1, a]:
                    vit[i, i + 1, a] = lp
                    bp_rule[i, i + 1, a] = rid
        K = idx.max_rules
        for span in range(2, n + 1) if K else ():
            i, k, js = _width(n, span)
            splits = span - 1
            tile = max(1, _VITERBI_BLOCK // (splits * N * K))
            for t in range(0, len(i), tile):
                it, kt, jt = i[t:t + tile], k[t:t + tile], js[t:t + tile]
                best, rid, split = _viterbi_block(idx, vit[it[:, None], jt], vit[jt, kt[:, None]])
                live = best > NEG_INF
                vit[it, kt] = best
                bp_rule[it, kt] = np.where(live, rid, -1)
                bp_split[it, kt] = np.where(live, it[:, None] + 1 + split, -1)
        self._vit = (vit, bp_rule, bp_split)

    def viterbi_tables(self):
        if self._vit is None:
            self._fill_viterbi()
        return self._vit

    def viterbi_log(self):
        vit, _, _ = self.viterbi_tables()
        return float(vit[0, self.n, self.index.root_i])

    # -- derivation counting -----------------------------------------------

    def _fill_counts(self):
        idx = self.index
        n, N = self.n, idx.n_nts
        counts = np.zeros((n, n + 1, N), dtype=np.int64)
        for i, tok in enumerate(self.tokens):
            for a, _p, _rid in idx.lex[tok]:
                counts[i, i + 1, a] = 1
        for span in range(2, n + 1):
            i, k, js = _width(n, span)
            L = counts[i[:, None], js]
            R = counts[js, k[:, None]]
            # every cell of the width is at most this; past 2^62 the sums
            # could overflow int64, so the rest of the chart is Python ints
            if (counts.dtype != object
                    and int(L.max()) * int(R.max()) * (span - 1) * idx.max_rules > 2 ** 62):
                counts, L, R = counts.astype(object), L.astype(object), R.astype(object)
            pairs = L.transpose(0, 2, 1) @ R
            counts[i, k] = pairs.reshape(len(i), N * N) @ idx.pair_n
        self._counts = counts

    def count(self, start, end, label):
        if self._counts is None:
            self._fill_counts()
        return int(self._counts[start, end, self.index.nt_i[label]])


def _width(n, span):
    """Cells (i, i + span) of one span width, and their split points j as a
    (cells, splits) array."""
    i = np.arange(n - span + 1)
    return i, i + span, i[:, None] + np.arange(1, span)


def _viterbi_block(idx, L, R):
    """Best log-probability per (cell, mother) from daughter blocks L and R
    of shape (cells, splits, N), with the rule id and split index reaching
    it: the lowest rule id among ties, then the lowest split."""
    cells, splits, N = L.shape
    L, R = L.transpose(0, 2, 1), R.transpose(0, 2, 1)
    pairs = (L[:, :, None, :] + R[:, None, :, :]).reshape(cells, N * N, splits)
    # (cells, mothers, rule slots, splits), flattened over the last two axes
    # so that the first maximum is the lowest slot, then the lowest split
    scores = pairs[:, idx.mother_pair]
    scores += idx.mother_logp
    scores = scores.reshape(cells, N, -1)
    slot, split = np.divmod(scores.argmax(axis=2), splits)
    return scores.max(axis=2), idx.mother_rid[np.arange(N), slot], split


def cyk_fill(grammar, tokens):
    """Fill the inside chart for a token sequence.

    Raises ParseError naming the first token outside the grammar's terminal
    vocabulary.  Runtime is O(n^3 * |rules|); inside values use the scaled
    representation described in the module docstring.
    """
    tokens = list(tokens)
    if not tokens:
        raise ParseError("cannot parse an empty sentence")
    idx = _index(grammar)
    known = set(idx.lex)
    for pos, tok in enumerate(tokens):
        if tok not in known:
            raise ParseError("unknown token %r at position %d" % (tok, pos))

    n, N = len(tokens), idx.n_nts
    inside_m = np.zeros((n, n + 1, N))
    inside_s = np.zeros((n, n + 1))
    for i, tok in enumerate(tokens):
        for a, p, _rid in idx.lex[tok]:
            inside_m[i, i + 1, a] = p

    for span in range(2, n + 1):
        i, k, js = _width(n, span)
        L = inside_m[i[:, None], js]
        R = inside_m[js, k[:, None]]
        s = inside_s[i[:, None], js] + inside_s[js, k[:, None]]
        s[(L.max(axis=2) == 0.0) | (R.max(axis=2) == 0.0)] = NEG_INF
        m = s.max(axis=1)
        m[m == NEG_INF] = 0.0  # no split with mass: every weight below is 0
        w = np.exp(s - m[:, None])
        pairs = (L * w[:, :, None]).transpose(0, 2, 1) @ R
        cell = pairs.reshape(len(i), N * N) @ idx.pair_p
        top = cell.max(axis=1)
        live = top > 0.0
        inside_m[i[live], k[live]] = cell[live] / top[live, None]
        inside_s[i[live], k[live]] = m[live] + np.log(top[live])
    return Chart(grammar, tokens, inside_m, inside_s)


# ---------------------------------------------------------------------------
# Parse trees

class ParseTree:
    """Binary derivation tree; leaves hold the terminal token."""

    __slots__ = ("label", "children", "logprob")

    def __init__(self, label, children, logprob):
        self.label = label
        self.children = children
        self.logprob = logprob

    @property
    def probability(self):
        return math.exp(self.logprob)

    def is_leaf(self):
        return len(self.children) == 1 and isinstance(self.children[0], str)

    def tokens(self):
        if self.is_leaf():
            return [self.children[0]]
        out = []
        for c in self.children:
            out.extend(c.tokens())
        return out

    def __repr__(self):
        return tree_to_paren(self)


def viterbi_parse(chart, grammar=None):
    """Extract the most probable derivation of the root over the full span.

    Ties break deterministically on (rule id, split point) ascending.  Raises
    NoParseError when the sentence has no derivation.
    """
    grammar = grammar if grammar is not None else chart.grammar
    idx = chart.index
    vit, bp_rule, bp_split = chart.viterbi_tables()
    root_lp = vit[0, chart.n, idx.root_i]
    if root_lp == NEG_INF:
        raise NoParseError("no parse for %r" % " ".join(chart.tokens))
    rules = grammar.rules()

    def build(i, k, a):
        lp = vit[i, k, a]
        rid = int(bp_rule[i, k, a])
        rule = rules[rid]
        if k - i == 1:
            return ParseTree(idx.nts[a], (chart.tokens[i],), lp)
        j = int(bp_split[i, k, a])
        left = build(i, j, idx.nt_i[rule.left])
        right = build(j, k, idx.nt_i[rule.right])
        return ParseTree(idx.nts[a], (left, right), lp)

    tree = build(0, chart.n, idx.root_i)
    return tree, math.exp(root_lp)


def count_parses(chart):
    """Exact number of distinct derivations of the root over the full span."""
    return chart.count(0, chart.n, chart.grammar.root)


def likelihood_ratio(chart, viterbi_prob=None):
    """Ratio of the most probable parse to the total parse probability."""
    all_lp = chart.sentence_logprob()
    if all_lp == NEG_INF:
        raise NoParseError("likelihood ratio undefined: sentence has no parse")
    best_lp = chart.viterbi_log() if viterbi_prob is None else math.log(viterbi_prob)
    return math.exp(best_lp - all_lp)


def unconstrained_count(n, num_nonterminals):
    """Number of binary-branching, fully labelled analyses of an n-word
    sentence with no grammatical constraints: Catalan(n-1) * N^(n-1)."""
    if n < 1 or num_nonterminals < 1:
        raise ValueError("need n >= 1 and at least one nonterminal")
    k = n - 1
    catalan = math.comb(2 * k, k) // (k + 1)
    return catalan * num_nonterminals ** k


# ---------------------------------------------------------------------------
# Report formatting

@dataclass
class ParseReport:
    tokens: list
    best_log: float
    all_log: float
    likelihood: float
    count: int
    tree: ParseTree


def parse_report(grammar, tokens):
    """Parse one sentence and report best/all/likelihood/count plus the tree."""
    chart = cyk_fill(grammar, tokens)
    all_log = chart.sentence_logprob()
    if all_log == NEG_INF:
        raise NoParseError("no parse for %r" % " ".join(tokens))
    tree, _ = viterbi_parse(chart, grammar)
    best_log = chart.viterbi_log()
    return ParseReport(list(tokens), best_log, all_log,
                       math.exp(best_log - all_log), count_parses(chart), tree)


def sci_from_log(ln_value, digits=6):
    """Scientific-notation decimal for exp(ln_value), safe far below the
    double-precision range."""
    if ln_value == NEG_INF:
        return "0." + "0" * digits + "e+00"
    log10 = ln_value / math.log(10.0)
    e = math.floor(log10)
    m = 10.0 ** (log10 - e)
    if m >= 10.0 - 0.5 * 10.0 ** -digits:
        m /= 10.0
        e += 1
    return "%.*fe%s%02d" % (digits, m, "-" if e < 0 else "+", abs(e))


def format_report(report):
    return "best %s all %s likelihood %.6f count %d" % (
        sci_from_log(report.best_log), sci_from_log(report.all_log),
        report.likelihood, report.count)


def tree_to_paren(tree):
    if tree.is_leaf():
        return "(%s %s)" % (tree.label, tree.children[0])
    return "(%s %s)" % (tree.label, " ".join(tree_to_paren(c) for c in tree.children))


def tree_to_brackets(tree):
    """Square-bracket style with repeated closing labels."""
    if tree.is_leaf():
        return "[%s %s %s]" % (tree.label, tree.children[0], tree.label)
    inner = " ".join(tree_to_brackets(c) for c in tree.children)
    return "[%s %s %s]" % (tree.label, inner, tree.label)


def format_tree(tree, style="paren"):
    if style == "paren":
        return tree_to_paren(tree)
    if style == "appendix3":
        return tree_to_brackets(tree)
    raise ValueError("unknown tree format %r" % style)
