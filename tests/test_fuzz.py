"""Malformed input: randomly mutated copies of the bundled grammar, rule file
and a gold-tree file must fail with a GrammarError that names a line, never
with another exception."""

import random

import pytest

from xpcfg import fixtures
from xpcfg.chart import cyk_fill, tree_to_paren, viterbi_parse
from xpcfg.constraints import enumerate_implicit
from xpcfg.generate import GenConfig, sample_corpus
from xpcfg.grammar import GrammarError, compile_cnf, parse_grammar
from xpcfg.scoring import read_gold_trees
from xpcfg.training import parse_rules

CASES = 700  # per input: about 2,000 in all
SPECIALS = "()[]{}.:,;=+-#>\n 0123456789"


def load_grammar(text):
    g = parse_grammar(text)
    enumerate_implicit(compile_cnf(g), g.constraints)


def mutate(rng, text):
    """One to three edits: delete, insert or duplicate a character."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + text[at + 1:]
        elif edit == 1:
            text = text[:at] + rng.choice(SPECIALS + text) + text[at:]
        else:
            text = text[:at] + text[at] + text[at:]
    return text


@pytest.fixture(scope="module")
def gold_text(xbar_cnf):
    corpus = sample_corpus(xbar_cnf, GenConfig(count=6, seed=1, max_length=12))
    return "\n".join(tree_to_paren(viterbi_parse(cyk_fill(xbar_cnf, s))[0]) for s in corpus) + "\n"


@pytest.mark.parametrize("name", ["grammar", "rules", "gold"])
def test_mutated_input_fails_with_a_located_grammar_error(name, gold_text):
    load, text = {"grammar": (load_grammar, fixtures.xbar_text()),
                  "rules": (parse_rules, fixtures.trained_rules_text()),
                  "gold": (read_gold_trees, gold_text)}[name]
    load(text)  # the unmutated input loads
    rng = random.Random(name)
    failed = 0
    for case in range(CASES):
        bad = mutate(rng, text)
        try:
            load(bad)
        except GrammarError as exc:
            assert exc.line is not None, (case, str(exc), bad)
            failed += 1
    assert failed > 0
