"""CYK packed-chart parsing over CNF PCFGs, and its reverse pass, which takes
expected rule counts for training.

Inside and outside values are kept in an extended-range representation: each
span stores a mantissa vector over nonterminals, with maximum 1, plus one
natural-log scale factor (-inf for a span without mass), so sentence
probabilities far below double-precision range stay exact to within
rounding.  Viterbi search runs in the log domain.  Derivation counts are
float64 while below 2^53, where such sums are exact, and exact Python
integers from the first span width that reaches it.

Every pass fills the chart one span width at a time, widest first for the
reverse pass: the daughters (or the parents and siblings) of all cells of
the width are gathered as (cells, splits, nonterminals) blocks and combined
by a few array operations, so no pass loops over cells in Python.
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
        N, nr = self.n_nts, len(A)
        pair = (self.bin_b * N + self.bin_c, self.bin_a)
        self.pair_p = np.zeros((N * N, N))
        np.add.at(self.pair_p, pair, self.bin_p)
        self.pair_n = np.zeros((N * N, N))
        np.add.at(self.pair_n, pair, 1.0)
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
            i, k, lft, rgt = _width(n, span)
            splits = span - 1
            tile = max(1, _VITERBI_BLOCK // (splits * N * K))
            for t in range(0, len(i), tile):
                it, kt = i[t:t + tile], k[t:t + tile]
                best, rid, split = _viterbi_block(
                    idx, _take(vit, lft[t:t + tile]), _take(vit, rgt[t:t + tile]))
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
        counts, rules = np.zeros((n, n + 1, N)), idx.pair_n
        for i, tok in enumerate(self.tokens):
            for a, _p, _rid in idx.lex[tok]:
                counts[i, i + 1, a] += 1.0
        for span in range(2, n + 1):
            i, k, lft, rgt = _width(n, span)
            cell = _combine(_take(counts, lft), _take(counts, rgt), rules)
            # float64 sums of non-negative integers are exact below 2^53 and
            # reach 2^53 only where the exact sums do: from the first width
            # that reaches it, the chart is Python ints
            if counts.dtype != object and cell.max() >= 2.0 ** 53:
                counts = counts.astype(np.int64).astype(object)
                rules = rules.astype(np.int64).astype(object)
                cell = _combine(_take(counts, lft), _take(counts, rgt), rules)
            counts[i, k] = cell
        self._counts = counts

    def count(self, start, end, label):
        if self._counts is None:
            self._fill_counts()
        return int(self._counts[start, end, self.index.nt_i[label]])


def _width(n, span):
    """Cells (i, k = i + span) of one span width, and the flat ids of their
    left and right daughters (i, j) and (j, k) at each split j, as
    (cells, splits) arrays."""
    i = np.arange(n - span + 1)
    k = i + span
    js = i[:, None] + np.arange(1, span)
    return i, k, i[:, None] * (n + 1) + js, js * (n + 1) + k[:, None]


def _take(m, ids):
    """Cells of a chart table m of shape (n, n + 1, N) by flat id
    start * (n + 1) + end."""
    return m.reshape(-1, m.shape[-1]).take(ids, axis=0)


def _combine(L, R, rules):
    """Each cell's sum over splits of the products of its (left, right)
    daughter values, from blocks L and R (cells, splits, N), times a
    (N * N, N) rule matrix."""
    return (L.transpose(0, 2, 1) @ R).reshape(len(L), -1) @ rules


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


def _shared_scale(s):
    """One log-scale per cell for a sum over its rows: the largest of the
    rows' log-scales s (cells, rows), which are -inf for rows without mass.
    Returns each row's weight relative to it, and the scale (0 for a cell
    with no live row)."""
    top = s.max(axis=1)
    top[top == NEG_INF] = 0.0  # no live row: every weight below is 0
    return np.exp(s - top[:, None]), top


def _store(m, s, i, k, cell, top):
    """Store values cell (cells, N) under log-scales top at cells (i, k) as
    mantissas with maximum 1; cells with no mass keep scale -inf."""
    peak = cell.max(axis=1)
    live = peak > 0.0
    m[i[live], k[live]] = cell[live] / peak[live, None]
    s[i[live], k[live]] = top[live] + np.log(peak[live])


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
    n, N = len(tokens), idx.n_nts
    inside_m = np.zeros((n, n + 1, N))
    inside_s = np.full((n, n + 1), NEG_INF)
    for i, tok in enumerate(tokens):
        if tok not in idx.lex:
            raise ParseError("unknown token %r at position %d" % (tok, i))
        inside_s[i, i + 1] = 0.0
        for a, p, _rid in idx.lex[tok]:
            inside_m[i, i + 1, a] += p

    for span in range(2, n + 1):
        i, k, lft, rgt = _width(n, span)
        w, top = _shared_scale(inside_s.take(lft) + inside_s.take(rgt))
        cell = _combine(_take(inside_m, lft) * w[:, :, None], _take(inside_m, rgt), idx.pair_p)
        _store(inside_m, inside_s, i, k, cell, top)
    return Chart(grammar, tokens, inside_m, inside_s)


def expected_counts(grammar, tokens, chart=None):
    """Expected usage count per rule for one sentence, indexed by rule id.

    count(r) = sum over applications of r of
        outside(mother) * prob(r) * inside(daughters) / inside(root).

    The reverse of cyk_fill: one pass over the chart, widest spans first,
    fills the outside values of every cell of a width from its parents,
    those where the cell is the left daughter and those where it is the
    right one, gathered as one block under one shared scale per cell.  Every
    binary application has exactly one left daughter, so the same step books
    the counts of the applications whose left daughter is a cell of the
    width.  outside(0, n, root) = 1.
    """
    if chart is None:
        chart = cyk_fill(grammar, tokens)
    root_lp = chart.sentence_logprob()
    if root_lp == NEG_INF:
        raise NoParseError("expected counts undefined: sentence has no parse")
    idx = chart.index
    n, N = chart.n, idx.n_nts
    in_m, in_s = chart.inside_m, chart.inside_s
    out_m = np.zeros_like(in_m)
    out_s = np.full_like(in_s, NEG_INF)
    out_m[0, n, idx.root_i] = 1.0
    out_s[0, n] = 0.0
    # rules by daughter: (left, right * N + mother), (right, left * N + mother)
    by_left = idx.pair_p.reshape(N, N * N)
    by_right = idx.pair_p.reshape(N, N, N).transpose(1, 0, 2).reshape(N, N * N)
    booked = np.zeros((N, N * N))  # (left, right * N + mother)
    counts = np.zeros(len(grammar.rules()))

    W = n + 1  # flat cell ids, as in _take
    for span in range(n - 1, 0, -1):
        # a cell (i, k) has n - span parents, one per row h from k - n to
        # i - 1: (i, W + h) with right sibling (k, W + h) for h < 0, then
        # (h, k) with left sibling (h, i)
        i = np.arange(n - span + 1)
        k = i + span
        ic, kc = i[:, None], k[:, None]
        h = np.arange(n - span) + (kc - n)
        left = h < 0
        par = np.where(left, ic * W + W + h, h * W + kc)
        sib = np.where(left, kc * W + W + h, h * W + ic)
        w, top = _shared_scale(out_s.take(par) + in_s.take(sib))
        parents, siblings = _take(out_m, par), _take(in_m, sib).transpose(0, 2, 1)
        # (cells, sibling * N + mother) sums for the cell as either daughter
        as_left = ((siblings * (w * left)[:, None, :]) @ parents).reshape(len(i), N * N)
        as_right = ((siblings * (w * ~left)[:, None, :]) @ parents).reshape(len(i), N * N)
        inside = in_m[i, k]
        cell = as_left @ by_left.T + as_right @ by_right.T
        cell[inside == 0.0] = 0.0  # in no derivation: never used below
        _store(out_m, out_s, i, k, cell, top)

        scale = top + in_s[i, k] - root_lp
        low = scale <= _EXP_LIMIT
        booked += (inside[low] * np.exp(scale[low])[:, None]).T @ as_left[low]
        if not low.all():  # exp(scale) would overflow: book rule by rule in logs
            high = ~low
            with np.errstate(divide="ignore"):
                logs = np.log(inside[high][:, idx.bin_b] * idx.bin_p
                              * as_left[high][:, idx.bin_c * N + idx.bin_a])
            counts[idx.bin_rid] += np.exp(logs + scale[high, None]).sum(axis=0)
    counts[idx.bin_rid] += booked[idx.bin_b, idx.bin_c * N + idx.bin_a] * idx.bin_p
    for i, tok in enumerate(chart.tokens):
        base = out_s[i, i + 1] - root_lp
        for a, p, rid in idx.lex[tok]:
            m = out_m[i, i + 1, a]
            if m > 0.0:
                counts[rid] += math.exp(math.log(p) + math.log(m) + base)
    return counts


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
    root = Tree(idx.nts[idx.root_i], ())
    stack = [(root, 0, chart.n, idx.root_i)]
    while stack:
        node, i, k, a = stack.pop()
        if k - i == 1:
            node.children = (chart.tokens[i],)
            continue
        rule = rules[bp_rule[i, k, a]]
        j = int(bp_split[i, k, a])
        node.children = (Tree(rule.left, ()), Tree(rule.right, ()))
        stack.append((node.children[0], i, j, idx.nt_i[rule.left]))
        stack.append((node.children[1], j, k, idx.nt_i[rule.right]))
    return root, math.exp(root_lp)


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
