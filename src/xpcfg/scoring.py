"""Unlabelled bracket comparison between candidate parses and gold trees:
recall, precision and crossing brackets, micro-averaged over a test set.

Recall is the percentage of gold brackets present in the candidate parse;
precision is the percentage of candidate brackets present in the gold set.
A candidate span crosses a gold span when the two share at least one word
but neither contains the other.  Single-word spans are never counted; the
full-sentence span is included for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chart import NEG_INF, Tree, corpus_map, viterbi_parse, walk
from .grammar import GrammarError


@dataclass(frozen=True)
class BracketSet:
    spans: frozenset  # of (start, end) half-open intervals, end - start >= 2
    length: int

    def __post_init__(self):
        for start, end in self.spans:
            if not (0 <= start < end <= self.length and end - start >= 2):
                raise ValueError("bad span (%d, %d) for length %d" % (start, end, self.length))


@dataclass
class GeigScore:
    recall: float
    precision: float
    crossings: int
    matched: int = 0
    candidate_count: int = 0
    gold_count: int = 0


@dataclass
class CorpusScore:
    sentences_total: int = 0
    sentences_parsed: int = 0
    avg_sentence_length: float = 0.0
    recall: float = 0.0
    precision: float = 0.0
    total_crossings: int = 0
    avg_crossings: float = 0.0
    matched: int = 0
    candidate_count: int = 0
    gold_count: int = 0
    per_sentence: list = field(default_factory=list)

    @property
    def parsed_pct(self):
        if self.sentences_total == 0:
            return 0.0
        return 100.0 * self.sentences_parsed / self.sentences_total


# ---------------------------------------------------------------------------
# Trees and brackets

def parse_tree_text(text, line=None):
    """Read one bracketed tree in nested-parenthesis form '(Label child ...)';
    line, if given, is where the text stands in its file, for errors.

    Iterative, so tree depth is not limited by the interpreter's recursion
    limit.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens or tokens[0] != "(":
        raise GrammarError("expected '(' in tree text at %r" % (tokens[0] if tokens else text), line)
    stack = []  # open constituents: (label, children so far)
    pos = 0
    while True:
        tok = tokens[pos]
        if tok == "(":
            if pos + 1 >= len(tokens) or tokens[pos + 1] in "()":
                raise GrammarError("missing node label in tree text", line)
            stack.append((tokens[pos + 1], []))
            pos += 2
        elif tok == ")":
            label, children = stack.pop()
            if not children:
                raise GrammarError("empty constituent %r" % label, line)
            node = Tree(label, children)
            pos += 1
            if not stack:
                break
            stack[-1][1].append(node)
        else:
            stack[-1][1].append(tok)
            pos += 1
        if pos >= len(tokens):
            raise GrammarError("unbalanced parentheses in tree text", line)
    if pos != len(tokens):
        raise GrammarError("trailing text after tree", line)
    return node


def read_gold_trees(text):
    """One bracketed tree per line; blank lines ignored.  Errors name the
    tree's line, from 1."""
    return [parse_tree_text(tree, i) for i, tree in enumerate(text.splitlines(), 1) if tree.strip()]


def load_gold_trees(path):
    with open(path) as fh:
        return read_gold_trees(fh.read())


def brackets_of(tree):
    """Spans of all internal nodes covering at least two words, deduplicated."""
    spans, starts, end = set(), [], 0  # end: words read so far
    for node in walk(tree):
        if node is None:
            start = starts.pop()
            if end - start >= 2:
                spans.add((start, end))
        elif isinstance(node, str):
            end += 1
        else:
            starts.append(end)
    return BracketSet(frozenset(spans), end)


# ---------------------------------------------------------------------------
# Scoring

def spans_cross(a, b):
    """Symmetric: spans share a word but neither contains the other."""
    overlap = a[0] < b[1] and b[0] < a[1]
    nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
    return overlap and not nested


def geig_score(candidate, gold):
    """Score one sentence's candidate bracket set against the gold set.

    Crossings count candidate spans that cross at least one gold span.
    Empty reference sets score 100 on the corresponding measure.
    """
    if candidate.length != gold.length:
        raise ValueError("bracket sets cover different sentence lengths (%d vs %d)"
                         % (candidate.length, gold.length))
    matched = len(candidate.spans & gold.spans)
    recall = 100.0 * matched / len(gold.spans) if gold.spans else 100.0
    precision = 100.0 * matched / len(candidate.spans) if candidate.spans else 100.0
    crossings = sum(1 for c in candidate.spans if any(spans_cross(c, g) for g in gold.spans))
    return GeigScore(recall, precision, crossings, matched,
                     len(candidate.spans), len(gold.spans))


def evaluate_corpus(grammar, gold_trees):
    """Viterbi-parse each gold tree's yield and score against its brackets.

    Each distinct yield is parsed once, with no inside pass, in batches of
    one length (chart.corpus_map).  Unparsed sentences are excluded from the
    bracket aggregates but counted in the sentences-parsed figures; recall
    and precision are micro-averaged over total bracket counts.  Raises
    ValueError on an empty gold set.
    """
    gold_trees = list(gold_trees)
    if not gold_trees:
        raise ValueError("empty gold set")
    best = corpus_map(grammar, (gold_tree.tokens() for gold_tree in gold_trees),
                      lambda chart: (viterbi_parse(chart, grammar)[0]
                                     if chart.viterbi_log() != NEG_INF else None))
    score = CorpusScore(sentences_total=len(gold_trees))
    total_len = 0
    for gold_tree, tree in zip(gold_trees, best):
        if tree is None:
            score.per_sentence.append(None)
            continue
        gold = brackets_of(gold_tree)
        cand = brackets_of(tree)
        s = geig_score(cand, gold)
        score.per_sentence.append(s)
        score.sentences_parsed += 1
        total_len += gold.length
        score.matched += s.matched
        score.candidate_count += s.candidate_count
        score.gold_count += s.gold_count
        score.total_crossings += s.crossings
    if score.sentences_parsed:
        score.avg_sentence_length = total_len / score.sentences_parsed
        score.avg_crossings = score.total_crossings / score.sentences_parsed
    score.recall = 100.0 * score.matched / score.gold_count if score.gold_count else 100.0
    score.precision = (100.0 * score.matched / score.candidate_count
                       if score.candidate_count else 100.0)
    return score


def format_corpus_score(score):
    """Summary table in the usual evaluation layout."""
    rows = [
        ("Sentences Parsed (No. / %)",
         "%d / %.2f" % (score.sentences_parsed, score.parsed_pct)),
        ("Average Sentence Length", "%.2f" % score.avg_sentence_length),
        ("Total Recall (%)", "%.2f" % score.recall),
        ("Total Precision (%)", "%.2f" % score.precision),
        ("Total Crossings", "%d" % score.total_crossings),
        ("Average Crossings", "%.2f" % score.avg_crossings),
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join("%-*s  %s" % (width, k, v) for k, v in rows)
