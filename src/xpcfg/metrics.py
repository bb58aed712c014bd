"""Per-word entropy measures of a corpus under a grammar.

With P(S) the inside probability of sentence S and |S| its length over K
scored sentences:

    aggregate     H3a = -(sum log P(S)) / (sum |S|)
    mean-per-word H3b = -(1/K) * sum (log P(S) / |S|)

The default logarithm is natural (nats per word), which is the scale the
reference entropy tables for both the small X-bar language (about 1.6 per
word) and the two-symbol mirror language (about 0.7 per word) were computed
on; pass base=2 for bits per word.

Unparseable sentences are excluded from both sums and reported in the
``skipped`` count; assigning them probability zero would make both measures
infinite.

Sentence log-probabilities come from one inside pass per distinct sentence,
in batches of one length, mapped back to corpus order (chart.corpus_map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chart import NEG_INF, Chart, NoParseError, corpus_map


@dataclass
class EntropyReport:
    h3a: float
    h3b: float
    sentences: int
    total_words: int
    skipped: int


def corpus_logprobs(grammar, corpus):
    """Natural-log probability of each sentence, in corpus order; NEG_INF
    for a sentence with no parse or with a token outside the vocabulary.
    Each distinct sentence is parsed once, in batches of one length."""
    return [NEG_INF if lp is None else lp
            for lp in corpus_map(grammar, corpus, Chart.sentence_logprob)]


def entropy(grammar, corpus, base=None):
    """Score a corpus; raises NoParseError when nothing is parseable."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    scale = 1.0 if base is None else math.log(base)
    total_log = 0.0
    mean_terms = 0.0
    words = 0
    scored = 0
    for tokens, lp in zip(corpus, corpus_logprobs(grammar, corpus)):
        if lp == NEG_INF:
            continue
        lp /= scale
        total_log += lp
        mean_terms += lp / len(tokens)
        words += len(tokens)
        scored += 1
    if scored == 0:
        raise NoParseError("no sentence in the corpus is parseable")
    return EntropyReport(
        h3a=-total_log / words,
        h3b=-mean_terms / scored,
        sentences=scored,
        total_words=words,
        skipped=len(corpus) - scored,
    )
