"""CYK packed-chart parsing over CNF PCFGs, and its reverse pass, which takes
expected rule counts for training.

Inside and outside values are scaled by span.  Each word's lexical row is
divided by c, its best lexical probability, and the binary rule matrix by d,
its best entry.  A derivation of w words uses w lexical and w - 1 binary
rules, so the inside values of a span share one factor, known before the
pass: the words' c times d^(w - 1) (Batch.inside_logs adds its log back).
Outside values carry the complementary factor, so those of a rule count,
outside * rule * inside * inside / root, cancel.  A static bound on a
batch's scaled values (_dtype) runs it in float64, or in np.longdouble if
they fit only there; beyond both it raises ParseError.  Viterbi search is
the max-plus inside pass over log-probabilities, with no backpointers: the
best tree's rule and split at each node are found again at extraction, by
repeating the fill's sums.  Derivation counts are float64 while below 2^53,
where such sums are exact, and exact Python integers from the first span
width at which any sentence of the batch reaches it.

Batch contract: Viterbi and count tables are bit-identical whatever batch a
sentence is filled in.  Inside values, log-probabilities and expected counts
are bit-identical for the same batch composition, and equal to rel 1e-13
otherwise, as the BLAS rounds a product's rows by the product's row count.

A length batch of B sentences of one length n owns every table of its
sentences, filled for the whole batch on first use.  Each table holds every
cell twice, in one (B, 2, n + 1, n + 1, ...) array: half 0 by start, cell
(i, i + w) at [b, 0, i, w], and half 1 by end, the same cell at
[b, 1, i + w, n - w]; _put writes a span width to both.  Cells outside the
chart hold the table's empty value (0, or -inf for Viterbi).

Every pass fills the chart one span width at a time, widest first for the
reverse pass, and reads each block of a width as a slice of one half: the
left daughters (i, i + s) by start and the right daughters (i + s, i + w) by
end, split by split (_daughters), and the parents and siblings of each cell
as either daughter (_around).  The forward fills, _fill (inside),
_fill_viterbi and _fill_counts, take the same (index, (B, n) word ids), and
inside and counts share one combine (_combine); the reverse pass,
batch_counts, runs on a filled batch.  A Chart is one row of its batch's
tables; batches cuts a corpus into batches of bounded size, and a single
sentence is a batch of one (cyk_fill).  corpus_map fills each distinct
sentence once and maps a function of its chart back to corpus order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NEG_INF = float("-inf")

# the widest per-width blocks of a batch of B sentences of length n hold up
# to about B * n * (n + 1) * N^2 elements: batches are cut to at most this
# many (a longer sentence is a batch of one), which bounds the passes' peak
# memory on large corpora
_BATCH_BLOCK = 2 ** 17


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
        bin_p = np.asarray(P, dtype=np.float64)
        self.bin_logp = np.log(bin_p) if len(P) else np.zeros(0)
        self.bin_rid = np.asarray(rid, dtype=np.int64)
        # daughter pair (left * N + right) -> mother: rule probabilities over
        # d, the best of them, and rule multiplicities, for the inside,
        # reverse and counting passes
        N = self.n_nts
        pair = (self.bin_b * N + self.bin_c, self.bin_a)
        self.pair_q = np.zeros((N * N, N))
        np.add.at(self.pair_q, pair, bin_p)
        d = self.pair_q.max() or 1.0
        self.pair_q /= d
        self.bin_q, self.log_d = bin_p / d, math.log(d)
        self.pair_n = np.zeros((N * N, N))
        np.add.at(self.pair_n, pair, 1.0)
        # live binary rules by (mother, rule id), each scored on its own (not
        # summed as in pair_q): the Viterbi fill takes each mother's best from
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
        # word: inside values over c, the word's best, derivation counts, and
        # the best log-probability
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
        lex_p = np.asarray(P, dtype=np.float64)
        self.lex_rid = np.asarray(rid, dtype=np.int64)
        V = len(self.word_i)
        self.word_q, self.word_n = np.zeros((V, N)), np.zeros((V, N))
        np.add.at(self.word_q, (self.lex_w, self.lex_a), lex_p)
        np.add.at(self.word_n, (self.lex_w, self.lex_a), 1.0)
        c = self.word_q.max(axis=1)
        self.word_q /= c[:, None]
        self.lex_q, self.word_logc = lex_p / c[self.lex_w], np.log(c)
        # for the range bound (_dtype): the log of each word's and of the rule
        # matrix's smallest nonzero ratio, and the largest sum of a mother's
        self.word_low = np.log(np.where(self.word_q > 0.0, self.word_q, 1.0).min(axis=1))
        self.rule_low = math.log(self.pair_q[self.pair_q > 0.0].min(initial=1.0))
        self.rho = max(self.pair_q.sum(axis=0).max(), 1.0)
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

    def inside_log(self, start, end, label):
        return float(self.batch.inside_logs(start, end, self.index.nt_i[label])[self.b])

    def inside(self, start, end, label):
        lp = self.inside_log(start, end, label)
        return 0.0 if lp == NEG_INF else math.exp(lp)

    def sentence_logprob(self):
        return self.batch.logprobs[self.b]

    def sentence_prob(self):
        return self.inside(0, self.n, self.grammar.root)

    # -- Viterbi -----------------------------------------------------------

    def viterbi_tables(self):
        """The sentence's (2, n + 1, n + 1, N) Viterbi table: the best
        log-probability of each span and label, by start at [0, start, width]
        and by end at [1, end, n - width]."""
        return self.batch.viterbi[self.b]

    def viterbi_log(self):
        return float(self.viterbi_tables()[0, 0, self.n, self.index.root_i])

    # -- derivation counting -----------------------------------------------

    def count(self, start, end, label):
        return int(self.batch.counts[self.b, 0, start, end - start, self.index.nt_i[label]])


def _put(t, w, cells):
    """Write the cells (B, n - w + 1, ...) of span width w, by start, to both
    halves of a batch table t."""
    n = t.shape[2] - 1
    t[:, 0, :n - w + 1, w] = t[:, 1, w:, n - w] = cells


def _daughters(t, w):
    """The left daughters (i, i + s) and the right daughters (i + s, i + w)
    of the cells (i, i + w) of span width w in a batch table t, as
    (B, cells, splits, ...) slices, split s = 1 .. w - 1 in order."""
    m = t.shape[2] - w
    return t[:, 0, :m, 1:w], t[:, 1, w:, m:-1]


def _around(out, inside, w):
    """The parents in table out and the siblings in table inside of the
    cells (i, i + w) of span width w, as (B, cells, rows, ...) slices: as
    left daughter, (i, i + w + u) and (i + w, i + w + u) for u = 1 .. n - w;
    as right daughter, (i - u, i + w) and (i - u, i) for u = n - w .. 1.
    Rows that would pass an end of the sentence are cells outside the chart."""
    m = out.shape[2] - w
    return out[:, 0, :m, w + 1:], inside[:, 0, w:, 1:m], out[:, 1, w:, :m - 1], inside[:, 1, :m, w:-1]


def _outer(P, Q):
    """Each cell's (p * N + q) sums over rows of the products of P[row, p]
    and Q[row, q], from blocks P and Q (B, cells, rows, N), as
    (B * cells, N * N)."""
    return (P.swapaxes(-1, -2) @ Q).reshape(-1, P.shape[-1] * Q.shape[-1])


class Batch:
    """B sentences of one length n, with their (B, n) word ids, and the tables
    of all of them, each filled for the whole batch on first use: inside
    values scaled by span, in the float type _dtype picks, root
    log-probabilities (NEG_INF for a sentence with no parse), the Viterbi
    table and derivation counts."""

    def __init__(self, idx, sentences, words):
        self.idx, self.sentences, self.words = idx, sentences, words

    @cached_property
    def inside(self):
        return _fill(self.idx, self.words)

    def inside_logs(self, start, end, a):
        """(B,) natural logs of the inside values of label a over span
        (start, end): each sentence's table value times the span's factor."""
        idx = self.idx
        scale = idx.word_logc[self.words[:, start:end]].sum(axis=1) + (end - start - 1) * idx.log_d
        with np.errstate(divide="ignore"):
            return (np.log(self.inside[:, 0, start, end - start, a]) + scale).astype(np.float64)

    @cached_property
    def logprobs(self):
        return self.inside_logs(0, self.words.shape[1], self.idx.root_i).tolist()

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


def corpus_map(grammar, corpus, f):
    """f(chart) for each sentence of a corpus, in corpus order, or None for
    a sentence that batches leaves out.  Each distinct sentence is filled
    once, and f runs while its batch is alive."""
    corpus = [tuple(tokens) for tokens in corpus]
    value = {}
    for batch in batches(grammar, dict.fromkeys(corpus)):
        for tokens, chart in zip(batch.sentences, batch.charts()):
            value[tokens] = f(chart)
    return [value.get(tokens) for tokens in corpus]


def _dtype(idx, words):
    """The float type of the inside and reverse passes over (B, n) word ids.
    A scaled value is a sum of derivation products, each no smaller than the
    product of the smallest ratios, and is at most Catalan(n - 1) trees, each
    at most rho^(n - 1), rho the largest sum of a mother's ratios."""
    n = words.shape[1]
    low = (n - 1) * idx.rule_low + idx.word_low[words].sum(axis=1).min()
    high = math.log(unconstrained_count(n, 1)) + (n - 1) * math.log(idx.rho)
    for dtype in (np.float64, np.longdouble):
        info = np.finfo(dtype)
        if low > np.log(info.tiny) and high - low < np.log(info.max):
            return dtype
    raise ParseError("a sentence of %d words is beyond the range of the chart's floats" % n)


def _combine(t, w, rules):
    """The cells (B, n - w + 1, N) of span width w of table t: each daughter
    pair's sums over splits, through rules (N * N, N)."""
    L, R = _daughters(t, w)
    return (_outer(L, R) @ rules).reshape(L.shape[:2] + (-1,))


def _fill(idx, words):
    """Inside pass over a batch of (B, n) word ids, returning its table of
    values scaled by span: each span width is one combine over the cells of
    every sentence."""
    (B, n), N = words.shape, idx.n_nts
    t = np.zeros((B, 2, n + 1, n + 1, N), _dtype(idx, words))
    _put(t, 1, idx.word_q[words])
    rules = idx.pair_q.astype(t.dtype)
    for w in range(2, n + 1):
        _put(t, w, _combine(t, w, rules))
    return t


def _fill_viterbi(idx, words):
    """Max-plus inside pass over a batch of (B, n) word ids, returning its
    Viterbi table: per cell of a width, the best sum of left and right
    daughter log-probabilities over splits for each daughter pair, plus
    each rule's log-probability, then the best rule per mother."""
    (B, n), N = words.shape, idx.n_nts
    vit = np.full((B, 2, n + 1, n + 1, N), NEG_INF)
    _put(vit, 1, idx.word_logp[words])
    for w in range(2, n + 1) if len(idx.vit_pair) else ():
        lft, rgt = _daughters(vit, w)
        cell = np.full(lft.shape[:2] + (N,), NEG_INF)
        # (B, starts, splits, N, N) blocks are cut to _BATCH_BLOCK elements
        tile = max(1, _BATCH_BLOCK // (B * (w - 1) * N * N))
        for t in range(0, lft.shape[1], tile):
            L, R = lft[:, t:t + tile], rgt[:, t:t + tile]
            pairs = (L[..., :, None] + R[..., None, :]).max(axis=2).reshape(B, -1, N * N)
            cell[:, t:t + tile, idx.vit_mothers] = np.maximum.reduceat(
                pairs[..., idx.vit_pair] + idx.vit_logp, idx.vit_first, axis=-1)
        _put(vit, w, cell)
    return vit


def _fill_counts(idx, words):
    """Exact derivation counts over a batch of (B, n) word ids, returning its
    table: the inside combine over rule multiplicities."""
    (B, n), N = words.shape, idx.n_nts
    counts, rules = np.zeros((B, 2, n + 1, n + 1, N)), idx.pair_n
    _put(counts, 1, idx.word_n[words])
    for w in range(2, n + 1):
        cell = _combine(counts, w, rules)
        # float64 sums of non-negative integers are exact below 2^53 and
        # reach 2^53 only where the exact sums do: from the first width
        # that reaches it, the batch's table is Python ints
        if counts.dtype != object and cell.max() >= 2.0 ** 53:
            counts = counts.astype(np.int64).astype(object)
            rules = rules.astype(np.int64).astype(object)
            cell = _combine(counts, w, rules)
        _put(counts, w, cell)
    return counts


def cyk_fill(grammar, tokens):
    """Fill the inside chart for a token sequence: a batch of one.

    Raises ParseError naming the first token outside the grammar's terminal
    vocabulary.  Runtime is O(n^3 * |rules|).
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
    counts = np.zeros(len(grammar.rules()))
    batch_counts(grammar, chart.batch, np.eye(len(chart.batch.sentences))[chart.b], counts)
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
    the right one, read as slices (_around).  Every binary application has
    exactly one left daughter, so the same step books the counts of the
    applications whose left daughter is a cell of the width.  Values are
    scaled by span (outside(0, n, root) = 1), and a count's factors cancel.
    """
    live = [b for b, (lp, w) in enumerate(zip(batch.logprobs, weights)) if lp != NEG_INF and w]
    if not live:
        return
    ins, words = batch.inside, batch.words
    if len(live) < len(batch.logprobs):
        ins, words = ins[live], words[live]
    idx = _index(grammar)
    n, N = words.shape[1], idx.n_nts
    per_root = np.array([weights[b] for b in live], ins.dtype) / ins[:, 0, 0, n, idx.root_i]
    out = np.zeros_like(ins)
    _put(out[..., idx.root_i], n, 1.0)
    # rules by daughter: (left, right * N + mother), (right, left * N + mother)
    rules = idx.pair_q.astype(ins.dtype)
    by_left = rules.reshape(N, N * N)
    by_right = rules.reshape(N, N, N).transpose(1, 0, 2).reshape(N, N * N)
    booked = np.zeros((N, N * N), ins.dtype)  # (left, right * N + mother)

    for w in range(n - 1, 0, -1):
        m = n - w + 1
        par_l, sib_l, par_r, sib_r = _around(out, ins, w)
        # (cells, sibling * N + mother) sums for the cell as either daughter,
        # over its n - w rows as each
        as_left, as_right = _outer(sib_l, par_l), _outer(sib_r, par_r)
        inside = ins[:, 0, :m, w].reshape(-1, N)
        _put(out, w, (as_left @ by_left.T + as_right @ by_right.T).reshape(-1, m, N))
        booked += (inside * np.repeat(per_root, m)[:, None]).T @ as_left
    counts[idx.bin_rid] += booked[idx.bin_b, idx.bin_c * N + idx.bin_a] * idx.bin_q
    # lexical rules: outside(i, i + 1, a) / inside(root) summed per word,
    # times each rule's scaled probability
    by_word = np.zeros((len(idx.word_i), N), ins.dtype)
    np.add.at(by_word, words, out[:, 0, :n, 1] * per_root[:, None, None])
    counts[idx.lex_rid] += by_word[idx.lex_w, idx.lex_a] * idx.lex_q


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
    n = chart.n
    root_lp = float(vit[0, 0, n, idx.root_i])
    if root_lp == NEG_INF:
        raise NoParseError("no parse for %r" % " ".join(chart.tokens))
    root = Tree(idx.nts[idx.root_i], ())
    stack = [(root, 0, n, idx.root_i, root_lp)]
    while stack:
        node, i, k, a, best = stack.pop()
        if k - i == 1:
            node.children = (chart.tokens[i],)
            continue
        lft, rgt = vit[0, i, 1:k - i].tolist(), vit[1, k, n - (k - i) + 1:n].tolist()
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


def parse_report(grammar, tokens, chart=None):
    """Report best/all/likelihood/count plus the tree for one sentence, from
    its chart if given, else from a batch of one."""
    if chart is None:
        chart = cyk_fill(grammar, tokens)
    tree, _ = viterbi_parse(chart, grammar)
    return ParseReport(list(tokens), chart.viterbi_log(), chart.sentence_logprob(),
                       likelihood_ratio(chart), count_parses(chart), tree)


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
