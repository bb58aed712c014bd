"""CYK packed-chart parsing over CNF PCFGs, and its reverse pass, which takes
expected rule counts for training.

Inside and outside values are kept in an extended-range representation: each
span stores a mantissa vector over nonterminals, with maximum 1, plus one
natural-log scale factor (-inf for a span without mass), so sentence
probabilities far below double-precision range stay exact to within
rounding.  Viterbi search is the max-plus form of the inside pass, over
log-probabilities: per cell, the best sum of daughter values over splits
for each daughter pair, plus each rule's log-probability, maximised per
mother.  It keeps no backpointers; the best tree's rule and split at each
node are found again at extraction, by repeating the fill's sums.
Derivation counts are float64 while below 2^53, where such sums are exact,
and exact Python integers from the first span width at which any sentence of
the batch reaches it.

Every pass fills the chart one span width at a time, widest first for the
reverse pass: the daughters (or the parents and siblings) of all cells of
the width are gathered as (cells, splits, nonterminals) blocks and combined
by a few array operations, so no pass loops over cells in Python.

A length batch of B sentences of one length n owns every table of its
sentences, each laid out as one (B, n, n + 1, N) table and filled for the
whole batch on first use: flat cell ids only gain an offset of
b * n * (n + 1), so each span width is one gather per side and one set of
array operations for the whole batch.  The three forward fills, _fill
(inside), _fill_viterbi and _fill_counts, take the same (index, (B, n) word
ids); the reverse pass, batch_counts, runs on a filled batch.  A Chart is
one row of its batch's tables.  batches cuts a corpus into batches of
bounded size; a single sentence is a batch of one (cyk_fill).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NEG_INF = float("-inf")

# a batch of B sentences of length n fills (B, n, n + 1, N) tables, and its
# widest per-width blocks hold up to about B * n * (n + 1) * N^2 elements:
# batches are cut to at most this many (a longer sentence is a batch of
# one), which bounds the passes' peak memory on large corpora
_BATCH_BLOCK = 2 ** 17

# the ids that _width computes are kept for sentences up to this length
# (at most 0.8 MB in all), which takes most of the per-width overhead out of
# the passes over short sentences
_CACHED_LENGTH = 32
_WIDTHS = {}

# the reverse pass books a cell's rule counts in the log domain when exp()
# of its scale relative to the sentence probability could overflow
_EXP_LIMIT = 700.0


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
        # daughter pair (left * N + right) -> mother: rule probabilities and
        # rule multiplicities, for the inside, reverse and counting passes
        N = self.n_nts
        pair = (self.bin_b * N + self.bin_c, self.bin_a)
        self.pair_p = np.zeros((N * N, N))
        np.add.at(self.pair_p, pair, self.bin_p)
        self.pair_n = np.zeros((N * N, N))
        np.add.at(self.pair_n, pair, 1.0)
        # live binary rules by (mother, rule id), each scored on its own (not
        # summed as in pair_p): the Viterbi fill takes each mother's best from
        # its first rule on with reduceat, and extraction scans rules_of[a],
        # (left, right, log-probability) per rule, in the same order
        order = np.argsort(self.bin_a, kind="stable")
        self.vit_pair, self.vit_logp = pair[0][order], self.bin_logp[order]
        self.vit_mothers, self.vit_first = np.unique(self.bin_a[order], return_index=True)
        self.rules_of = [[] for _ in range(N)]
        for a, b, c, lp in zip(A, B, C, self.bin_logp.tolist()):
            self.rules_of[a].append((b, c, lp))

        # live lexical rules: word id (in order of first use), mother,
        # probability and rule id; then (words, N) tables of the span of one
        # word: inside values, derivation counts, and the best log-probability
        self.word_i = {}
        W, A, P, rid = [], [], [], []
        nb = len(grammar.binary)
        for i, r in enumerate(grammar.lexical):
            if r.prob > 0.0:
                W.append(self.word_i.setdefault(r.word, len(self.word_i)))
                A.append(self.nt_i[r.mother])
                P.append(r.prob)
                rid.append(nb + i)
        self.lex_w = np.asarray(W, dtype=np.int64)
        self.lex_a = np.asarray(A, dtype=np.int64)
        self.lex_p = np.asarray(P, dtype=np.float64)
        self.lex_rid = np.asarray(rid, dtype=np.int64)
        V = len(self.word_i)
        self.word_p, self.word_n = np.zeros((V, N)), np.zeros((V, N))
        np.add.at(self.word_p, (self.lex_w, self.lex_a), self.lex_p)
        np.add.at(self.word_n, (self.lex_w, self.lex_a), 1.0)
        self.word_logp = np.full((V, N), NEG_INF)
        for w, a, p in zip(W, A, P):
            self.word_logp[w, a] = max(self.word_logp[w, a], math.log(p))


def _index(grammar):
    idx = getattr(grammar, "_chart_index", None)
    if idx is None or idx.grammar is not grammar:
        idx = _Index(grammar)
        grammar._chart_index = idx
    return idx


class Chart:
    """Packed chart over half-open spans (start, end) of sentence b of a
    Batch: row b of the batch's tables, which the batch fills on first use."""

    def __init__(self, batch, b):
        self.batch, self.b = batch, b
        self.index = batch.idx
        self.grammar = batch.idx.grammar
        self.tokens = list(batch.sentences[b])
        self.n = len(self.tokens)

    # -- inside ------------------------------------------------------------

    def inside_tables(self):
        mantissas, scales = self.batch.inside
        return mantissas[self.b], scales[self.b]

    def inside_log(self, start, end, label):
        mantissas, scales = self.inside_tables()
        m = mantissas[start, end, self.index.nt_i[label]]
        return NEG_INF if m == 0.0 else math.log(m) + scales[start, end]

    def inside(self, start, end, label):
        lp = self.inside_log(start, end, label)
        return 0.0 if lp == NEG_INF else math.exp(lp)

    def sentence_logprob(self):
        return self.batch.logprobs[self.b]

    def sentence_prob(self):
        return self.inside(0, self.n, self.grammar.root)

    # -- Viterbi -----------------------------------------------------------

    def viterbi_tables(self):
        return self.batch.viterbi[self.b]

    def viterbi_log(self):
        return float(self.viterbi_tables()[0, self.n, self.index.root_i])

    # -- derivation counting -----------------------------------------------

    def count(self, start, end, label):
        return int(self.batch.counts[self.b, start, end, self.index.nt_i[label]])


def _width(n, span, batch=1):
    """Cells (i, k = i + span) of one span width in each of a batch of
    sentences of length n, and their left and right daughters (i, j) and
    (j, k) at each split j, by flat id b * n * (n + 1) + start * (n + 1) + end
    in sentence b: cells (batch * cells,) and daughters (batch * cells,
    splits), cell by cell, sentence after sentence."""
    ids = _WIDTHS.get((n, span))
    if ids is None:
        i = np.arange(n - span + 1)
        k = i + span
        js = i[:, None] + np.arange(1, span)
        ids = i * (n + 1) + k, i[:, None] * (n + 1) + js, js * (n + 1) + k[:, None]
        if n <= _CACHED_LENGTH:
            for a in ids:
                a.flags.writeable = False
            _WIDTHS[n, span] = ids
    if batch == 1:
        return ids
    off = np.arange(0, batch * n * (n + 1), n * (n + 1))[:, None]
    cells, lft, rgt = ids
    return ((off + cells).reshape(-1), (off[:, :, None] + lft).reshape(-1, span - 1),
            (off[:, :, None] + rgt).reshape(-1, span - 1))


def _take(m, ids):
    """Cells of a chart table m of shape (n, n + 1, N), or (B, n, n + 1, N)
    for a batch, by flat id (see _width)."""
    return m.reshape(-1, m.shape[-1]).take(ids, axis=0)


def _combine(L, R, rules):
    """Each cell's sum over splits of the products of its (left, right)
    daughter values, from blocks L and R (cells, splits, N), times a
    (N * N, N) rule matrix."""
    return (L.transpose(0, 2, 1) @ R).reshape(len(L), -1) @ rules


def _shared_scale(s):
    """One log-scale per cell for a sum over its rows: the largest of the
    rows' log-scales s (cells, rows), which are -inf for rows without mass.
    Returns each row's weight relative to it, and the scale (0 for a cell
    with no live row)."""
    top = s.max(axis=1)
    top[top == NEG_INF] = 0.0  # no live row: every weight below is 0
    return np.exp(s - top[:, None]), top


def _store(m, s, ids, cell, top):
    """Store values cell (cells, N) under log-scales top at the cells of flat
    ids as mantissas with maximum 1; cells with no mass keep scale -inf."""
    peak = cell.max(axis=1)
    live = peak > 0.0
    ids = ids[live]
    m.reshape(-1, m.shape[-1])[ids] = cell[live] / peak[live, None]
    s.reshape(-1)[ids] = top[live] + np.log(peak[live])


class Batch:
    """B sentences of one length n, with their (B, n) word ids, and the tables
    of all of them, each filled for the whole batch on first use: inside
    mantissas (B, n, n + 1, N) and log-scales (B, n, n + 1), root
    log-probabilities (NEG_INF for a sentence with no parse), the Viterbi
    table and derivation counts."""

    def __init__(self, idx, sentences, words):
        self.idx, self.sentences, self.words = idx, sentences, words

    @cached_property
    def inside(self):
        return _fill(self.idx, self.words)

    @cached_property
    def logprobs(self):
        (m, s), n = self.inside, self.words.shape[1]
        root = m[:, 0, n, self.idx.root_i].tolist()
        return [math.log(r) + t if r else NEG_INF for r, t in zip(root, s[:, 0, n].tolist())]

    @cached_property
    def viterbi(self):
        return _fill_viterbi(self.idx, self.words)

    @cached_property
    def counts(self):
        return _fill_counts(self.idx, self.words)

    def charts(self):
        return [Chart(self, b) for b in range(len(self.sentences))]


def batches(grammar, sentences):
    """Distinct token sequences grouped by length and cut into batches of at
    most _BATCH_BLOCK elements; yields each Batch, whose tables are filled as
    they are asked for.  Empty sentences and those with a token outside the
    vocabulary are left out."""
    idx = _index(grammar)
    by_length = {}
    for tokens in sentences:
        if tokens and all(tok in idx.word_i for tok in tokens):
            by_length.setdefault(len(tokens), []).append(tokens)
    for n, group in by_length.items():
        size = max(1, _BATCH_BLOCK // (n * (n + 1) * idx.n_nts ** 2))
        for at in range(0, len(group), size):
            batch = group[at:at + size]
            yield Batch(idx, batch, np.array([[idx.word_i[tok] for tok in tokens] for tokens in batch]))


def _fill(idx, words):
    """Inside pass over a batch of (B, n) word ids, returning its mantissas
    and log-scales: each span width is one gather, one shared scale and one
    combine over the cells of every sentence."""
    B, n = words.shape
    m = np.zeros((B, n, n + 1, idx.n_nts))
    s = np.full((B, n, n + 1), NEG_INF)
    # cells (i, i + 1) are every (n + 2)-th cell from (0, 1)
    m.reshape(B, -1, idx.n_nts)[:, 1::n + 2] = idx.word_p[words]
    s.reshape(B, -1)[:, 1::n + 2] = 0.0
    for span in range(2, n + 1):
        cells, lft, rgt = _width(n, span, B)
        w, top = _shared_scale(s.take(lft) + s.take(rgt))
        _store(m, s, cells, _combine(_take(m, lft) * w[:, :, None], _take(m, rgt), idx.pair_p), top)
    return m, s


def _fill_viterbi(idx, words):
    """Max-plus inside pass over a batch of (B, n) word ids, returning its
    (B, n, n + 1, N) table: per cell of a width, the best sum of left and
    right daughter log-probabilities over splits for each daughter pair,
    plus each rule's log-probability, then the best rule per mother."""
    (B, n), N = words.shape, idx.n_nts
    vit = np.full((B, n, n + 1, N), NEG_INF)
    flat = vit.reshape(-1, N)
    vit.reshape(B, -1, N)[:, 1::n + 2] = idx.word_logp[words]  # as in _fill
    for span in range(2, n + 1) if len(idx.vit_pair) else ():
        cells, lft, rgt = _width(n, span, B)
        # (cells, splits, N, N) blocks are cut to _BATCH_BLOCK elements
        tile = max(1, _BATCH_BLOCK // ((span - 1) * N * N))
        for t in range(0, len(cells), tile):
            L, R = _take(vit, lft[t:t + tile]), _take(vit, rgt[t:t + tile])
            pairs = (L[:, :, :, None] + R[:, :, None, :]).max(axis=1).reshape(len(L), -1)
            best = np.maximum.reduceat(pairs[:, idx.vit_pair] + idx.vit_logp, idx.vit_first, axis=1)
            flat[cells[t:t + tile, None], idx.vit_mothers] = best
    return vit


def _fill_counts(idx, words):
    """Exact derivation counts over a batch of (B, n) word ids, returning its
    (B, n, n + 1, N) table: the inside combine over rule multiplicities."""
    (B, n), N = words.shape, idx.n_nts
    counts, rules = np.zeros((B, n, n + 1, N)), idx.pair_n
    counts.reshape(B, -1, N)[:, 1::n + 2] = idx.word_n[words]  # as in _fill
    for span in range(2, n + 1):
        cells, lft, rgt = _width(n, span, B)
        cell = _combine(_take(counts, lft), _take(counts, rgt), rules)
        # float64 sums of non-negative integers are exact below 2^53 and
        # reach 2^53 only where the exact sums do: from the first width
        # that reaches it, the batch's table is Python ints
        if counts.dtype != object and cell.max() >= 2.0 ** 53:
            counts = counts.astype(np.int64).astype(object)
            rules = rules.astype(np.int64).astype(object)
            cell = _combine(_take(counts, lft), _take(counts, rgt), rules)
        counts.reshape(-1, N)[cells] = cell
    return counts


def cyk_fill(grammar, tokens):
    """Fill the inside chart for a token sequence: a batch of one.

    Raises ParseError naming the first token outside the grammar's terminal
    vocabulary.  Runtime is O(n^3 * |rules|); inside values use the scaled
    representation described in the module docstring.
    """
    tokens = list(tokens)
    if not tokens:
        raise ParseError("cannot parse an empty sentence")
    idx = _index(grammar)
    for i, tok in enumerate(tokens):
        if tok not in idx.word_i:
            raise ParseError("unknown token %r at position %d" % (tok, i))
    batch = Batch(idx, [tokens], np.array([[idx.word_i[tok] for tok in tokens]]))
    batch.inside  # the inside pass runs here, not at first use
    return Chart(batch, 0)


def expected_counts(grammar, tokens, chart=None):
    """Expected usage count per rule for one sentence, indexed by rule id:
    batch_counts on the chart's batch, weighted to the chart's sentence."""
    if chart is None:
        chart = cyk_fill(grammar, tokens)
    if chart.sentence_logprob() == NEG_INF:
        raise NoParseError("expected counts undefined: sentence has no parse")
    weights = np.zeros(len(chart.batch.sentences))
    weights[chart.b] = 1.0
    counts = np.zeros(len(grammar.rules()))
    batch_counts(grammar, chart.batch, weights, counts)
    return counts


def batch_counts(grammar, batch, weights, counts):
    """Add to counts (indexed by rule id) weights[b] times the expected usage
    count of each rule in each parseable sentence b of a batch whose weight
    is not 0:

    count(r) = sum over applications of r of
        outside(mother) * prob(r) * inside(daughters) / inside(root).

    The reverse of the inside pass: one pass over the batch's chart, widest
    spans first, fills the outside values of every cell of a width from its
    parents, those where the cell is the left daughter and those where it is
    the right one, gathered as one block under one shared scale per cell.
    Every binary application has exactly one left daughter, so the same step
    books the counts of the applications whose left daughter is a cell of
    the width.  outside(0, n, root) = 1.
    """
    live = [b for b, (lp, w) in enumerate(zip(batch.logprobs, weights)) if lp != NEG_INF and w]
    if not live:
        return
    (in_m, in_s), words = batch.inside, batch.words
    if len(live) < len(batch.logprobs):
        in_m, in_s, words = in_m[live], in_s[live], words[live]
    root_lp = np.array([batch.logprobs[b] for b in live])
    weight = np.array([weights[b] for b in live], dtype=np.float64)
    idx = _index(grammar)
    B, n, W, N = in_m.shape
    out_m = np.zeros_like(in_m)
    out_s = np.full_like(in_s, NEG_INF)
    out_m[:, 0, n, idx.root_i] = 1.0
    out_s[:, 0, n] = 0.0
    flat_in, flat_out = in_m.reshape(-1, N), out_m.reshape(-1, N)
    # rules by daughter: (left, right * N + mother), (right, left * N + mother)
    by_left = idx.pair_p.reshape(N, N * N)
    by_right = idx.pair_p.reshape(N, N, N).transpose(1, 0, 2).reshape(N, N * N)
    booked = np.zeros((N, N * N))  # (left, right * N + mother)

    off = np.arange(0, B * n * W, n * W)[:, None, None]  # flat ids, as in _width
    for span in range(n - 1, 0, -1):
        # a cell (i, k) has n - span parents, one per row h from k - n to
        # i - 1: (i, W + h) with right sibling (k, W + h) for h < 0, then
        # (h, k) with left sibling (h, i)
        i = np.arange(n - span + 1)
        k = i + span
        ic, kc = i[:, None], k[:, None]
        h = np.arange(n - span) + (kc - n)
        left = h < 0
        rows = n - span
        par = (off + np.where(left, ic * W + W + h, h * W + kc)).reshape(-1, rows)
        sib = (off + np.where(left, kc * W + W + h, h * W + ic)).reshape(-1, rows)
        cells = (off[:, :, 0] + i * W + k).reshape(-1)
        w, top = _shared_scale(out_s.take(par) + in_s.take(sib))
        w = w.reshape(B, -1, rows)
        w_left, w_right = (w * left).reshape(-1, 1, rows), (w * ~left).reshape(-1, 1, rows)
        parents, siblings = flat_out.take(par, axis=0), flat_in.take(sib, axis=0).transpose(0, 2, 1)
        # (cells, sibling * N + mother) sums for the cell as either daughter
        as_left = ((siblings * w_left) @ parents).reshape(len(cells), N * N)
        as_right = ((siblings * w_right) @ parents).reshape(len(cells), N * N)
        inside = flat_in[cells]
        cell = as_left @ by_left.T + as_right @ by_right.T
        cell[inside == 0.0] = 0.0  # in no derivation: never used below
        _store(out_m, out_s, cells, cell, top)

        scale = top + in_s.reshape(-1)[cells] - np.repeat(root_lp, len(i))
        mult = np.repeat(weight, len(i))
        low = scale <= _EXP_LIMIT
        booked += (inside[low] * (np.exp(scale[low]) * mult[low])[:, None]).T @ as_left[low]
        if not low.all():  # exp(scale) would overflow: book rule by rule in logs
            high = ~low
            with np.errstate(divide="ignore"):
                logs = np.log(inside[high][:, idx.bin_b] * idx.bin_p
                              * as_left[high][:, idx.bin_c * N + idx.bin_a])
            counts[idx.bin_rid] += (np.exp(logs + scale[high, None])
                                    * mult[high, None]).sum(axis=0)
    counts[idx.bin_rid] += booked[idx.bin_b, idx.bin_c * N + idx.bin_a] * idx.bin_p
    # lexical rules: outside(i, i + 1, a) / inside(root) summed per word,
    # times each rule's probability; cells (i, i + 1) as in _fill
    scale = out_s.reshape(B, -1)[:, 1::n + 2] - root_lp[:, None]
    by_word = np.zeros((len(idx.word_i), N))
    np.add.at(by_word, words, out_m.reshape(B, -1, N)[:, 1::n + 2]
              * (np.exp(scale) * weight[:, None])[:, :, None])
    counts[idx.lex_rid] += by_word[idx.lex_w, idx.lex_a] * idx.lex_p


# ---------------------------------------------------------------------------
# Parse trees

class Tree:
    """Parse or gold tree; children mix subtrees and terminal tokens.  Walks
    over it are iterative, so depth is not limited by the recursion limit."""

    __slots__ = ("label", "children")

    def __init__(self, label, children):
        self.label = label
        self.children = tuple(children)

    def tokens(self):
        return [node for node in walk(self) if isinstance(node, str)]

    def __repr__(self):
        return tree_to_paren(self)


def walk(tree):
    """Depth-first walk: yields each subtree as it is entered, each token,
    and None as each subtree is left."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Tree):
            stack.append(None)
            stack.extend(reversed(node.children))


def viterbi_parse(chart, grammar=None):
    """Extract the most probable derivation of the root over the full span,
    with its probability; grammar, if given, is the chart's own.

    Ties break deterministically on (rule id, split point) ascending.  The
    chart keeps no backpointers: each binary node takes the first rule of its
    mother and split, in that order, whose score equals the node's table
    value.  The score is summed as the fill sums it, so the match is exact.
    Raises NoParseError when the sentence has no derivation.
    """
    idx = chart.index
    vit = chart.viterbi_tables()
    root_lp = float(vit[0, chart.n, idx.root_i])
    if root_lp == NEG_INF:
        raise NoParseError("no parse for %r" % " ".join(chart.tokens))
    root = Tree(idx.nts[idx.root_i], ())
    stack = [(root, 0, chart.n, idx.root_i, root_lp)]
    while stack:
        node, i, k, a, best = stack.pop()
        if k - i == 1:
            node.children = (chart.tokens[i],)
            continue
        lft, rgt = vit[i, i + 1:k].tolist(), vit[i + 1:k, k].tolist()
        b, c, s = _first_match(idx.rules_of[a], lft, rgt, best)
        node.children = (Tree(idx.nts[b], ()), Tree(idx.nts[c], ()))
        stack.append((node.children[0], i, i + 1 + s, b, lft[s][b]))
        stack.append((node.children[1], i + 1 + s, k, c, rgt[s][c]))
    return root, math.exp(root_lp)


def _first_match(rules, lft, rgt, best):
    """The first rule (left, right, log-probability) and split index, in
    that order, whose score (L + R) + log-probability over the daughter
    rows lft and rgt equals best."""
    for b, c, lp in rules:
        for s, (L, R) in enumerate(zip(lft, rgt)):
            if L[b] + R[c] + lp == best:
                return b, c, s


def count_parses(chart):
    """Exact number of distinct derivations of the root over the full span."""
    return chart.count(0, chart.n, chart.grammar.root)


def likelihood_ratio(chart):
    """Ratio of the most probable parse to the total parse probability.

    Both come from the chart's log-domain tables, so the ratio stays defined
    where either probability underflows."""
    all_lp = chart.sentence_logprob()
    if all_lp == NEG_INF:
        raise NoParseError("likelihood ratio undefined: sentence has no parse")
    return math.exp(chart.viterbi_log() - all_lp)


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
    tree: Tree


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


def _write(tree, opening, closing):
    """Text of a tree: opening, then each child after a space (tokens as
    they are), then closing; both are format strings of the label."""
    out, labels = [], []
    for node in walk(tree):
        if node is None:
            out.append(closing.format(labels.pop()))
        elif isinstance(node, str):
            out.append(" " + node)
        else:
            labels.append(node.label)
            out.append(" " + opening.format(node.label))
    return "".join(out)[1:]


def tree_to_paren(tree):
    return _write(tree, "({}", ")")


def tree_to_brackets(tree):
    """Square-bracket style with repeated closing labels."""
    return _write(tree, "[{}", " {}]")


def format_tree(tree, style="paren"):
    if style == "paren":
        return tree_to_paren(tree)
    if style == "appendix3":
        return tree_to_brackets(tree)
    raise ValueError("unknown tree format %r" % style)
