"""Stochastic sentence sampling from CNF PCFGs, plus the built-in mirror
-language grammar and ergodic grammar construction used by the replication
experiments."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grammar import BinaryRule, CnfGrammar, LexRule


@dataclass
class GenConfig:
    count: int = 1
    seed: int | None = None
    max_depth: int = 100
    max_length: int = 100

    def validate(self):
        # each check is written so that NaN fails it
        if not self.count >= 1:
            raise ValueError("count must be at least 1")
        if not (self.max_depth >= 1 and self.max_length >= 1):
            raise ValueError("derivation caps must be at least 1")


class GenerationError(Exception):
    """The grammar failed to terminate within the configured caps."""


# one full pass of rejected draws per requested sentence before giving up
_MAX_REJECTIONS_PER_SENTENCE = 1000


def _rule_table(grammar):
    table = {}
    for r in grammar.rules():
        if r.prob > 0.0:
            table.setdefault(r.mother, []).append(r)
    totals = {m: sum(r.prob for r in rs) for m, rs in table.items()}
    return table, totals


def sample_corpus(grammar, config):
    """Draw sentences top-down from the root, choosing rules by probability.

    Derivations exceeding max_depth or max_length are rejected and redrawn;
    output is reproducible for a fixed seed.
    """
    config.validate()
    draw = random.Random(config.seed).random
    table, totals = _rule_table(grammar)
    max_depth, max_length = config.max_depth, config.max_length

    def expand(symbol):
        """One derivation's words, or None when it breaks a cap.  Nodes are
        expanded depth first, left before right: the left daughter at once,
        the right one from an explicit stack, so depth is not limited by the
        recursion limit."""
        out, stack, depth = [], [], 1
        while True:
            if depth > max_depth or len(out) > max_length:
                return None
            rules = table.get(symbol)
            if not rules:
                return None
            pick = draw() * totals[symbol]
            acc = 0.0
            chosen = rules[-1]
            for r in rules:
                acc += r.prob
                if pick <= acc:
                    chosen = r
                    break
            if isinstance(chosen, LexRule):
                out.append(chosen.word)
                if len(out) > max_length:
                    return None
                if not stack:
                    return out
                symbol, depth = stack.pop()
            else:
                depth += 1
                stack.append((chosen.right, depth))
                symbol = chosen.left

    corpus = []
    budget = _MAX_REJECTIONS_PER_SENTENCE * config.count
    while len(corpus) < config.count:
        out = expand(grammar.root)
        if out is not None:
            corpus.append(out)
        else:
            budget -= 1
            if budget <= 0:
                raise GenerationError(
                    "grammar did not produce %d sentences within depth %d / length %d caps"
                    % (config.count, max_depth, max_length))
    return corpus


# ---------------------------------------------------------------------------
# Mirror-language fixture

# The even-length two-symbol mirror language {x . reverse(x)}: S recurses with
# probability MIRROR_CONTINUE and closes with a matching terminal pair
# otherwise; letters are drawn with P(a) = MIRROR_P_A at every level.  These
# values give an expected sentence length of 5 and per-word entropies of
# about 0.68 / 0.73 nats, matching the reference mirror-language rows.
MIRROR_CONTINUE = 0.6
MIRROR_P_A = 0.5


def palindrome_grammar():
    """CNF PCFG for even-length palindromes over {a, b}.

    Five nonterminals, two terminals, eight rules:
        S -> A X | B Y | A A | B B      X -> S A      Y -> S B
        A -> a                          B -> b
    """
    q, pa = MIRROR_CONTINUE, MIRROR_P_A
    binary = [
        BinaryRule("S", "A", "X", q * pa),
        BinaryRule("S", "B", "Y", q * (1.0 - pa)),
        BinaryRule("S", "A", "A", (1.0 - q) * pa),
        BinaryRule("S", "B", "B", (1.0 - q) * (1.0 - pa)),
        BinaryRule("X", "S", "A", 1.0),
        BinaryRule("Y", "S", "B", 1.0),
    ]
    lexical = [LexRule("A", "a", 1.0), LexRule("B", "b", 1.0)]
    return CnfGrammar(["S", "X", "Y", "A", "B"], ["a", "b"], binary, lexical, "S")


def sample_palindromes(count, seed=None, max_length=120):
    """Sample palindromes from the built-in mirror-language grammar."""
    return sample_corpus(palindrome_grammar(),
                         GenConfig(count=count, seed=seed, max_depth=400,
                                   max_length=max_length))


def ergodic_grammar(nonterminals, terminals, root=None, seed=None):
    """All possible CNF rules over the category set, with seeded-random
    initial probabilities normalised per mother.

    This is the model with no grammatical constraints beyond CNF itself: for
    N nonterminals and T terminals it has N^3 + N*T nonzero parameters.
    """
    rng = random.Random(seed)
    nonterminals = list(nonterminals)
    terminals = list(terminals)
    if root is None:
        root = nonterminals[0]
    pairs = [(b, c) for b in nonterminals for c in nonterminals]
    brules, lrules = [], []
    for a in nonterminals:
        ws = [rng.uniform(0.5, 1.5) for _ in range(len(pairs) + len(terminals))]
        total = sum(ws)
        ps = [w / total for w in ws]
        brules += [BinaryRule(a, b, c, p) for (b, c), p in zip(pairs, ps)]
        lrules += [LexRule(a, t, p) for t, p in zip(terminals, ps[len(pairs):])]
    return CnfGrammar(nonterminals, terminals, brules, lrules, root)


# ---------------------------------------------------------------------------
# Corpus files: one sentence per line, space-separated tokens

def corpus_to_text(corpus):
    return "\n".join(" ".join(tokens) for tokens in corpus) + "\n"


def parse_corpus(text):
    return [line.split() for line in text.splitlines() if line.strip()]


def load_corpus(path):
    with open(path) as fh:
        return parse_corpus(fh.read())
