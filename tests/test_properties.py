"""Property tests: the chart's derivation counts and expected rule counts
agree with exhaustive enumeration on random small grammars that include
zero-probability rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import enumerate_derivations, expected_usage
from xpcfg.chart import NoParseError, count_parses, cyk_fill, expected_counts
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule

@st.composite
def grammars_and_sentences(draw):
    nts = ["N%d" % i for i in range(draw(st.integers(1, 3)))]
    terms = ["w%d" % i for i in range(draw(st.integers(1, 2)))]
    binary = [(a, b, c) for a in nts for b in nts for c in nts]
    lexical = [(a, t) for a in nts for t in terms]
    rules = binary + lexical
    weight = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    weights = draw(st.lists(weight, min_size=len(rules), max_size=len(rules)))
    # every word keeps a lexical rule of nonzero probability, and at least
    # one other rule has probability zero
    kept = {len(binary) + draw(st.sampled_from(range(len(nts)))) * len(terms) + t
            for t in range(len(terms))}
    for i in kept:
        weights[i] = weights[i] or 1.0
    others = [i for i in range(len(rules)) if i not in kept]
    weights[draw(st.sampled_from(others))] = 0.0
    totals = {}
    for r, w in zip(rules, weights):
        totals[r[0]] = totals.get(r[0], 0.0) + w
    probs = [w / totals[r[0]] if w else 0.0 for r, w in zip(rules, weights)]
    g = CnfGrammar(nts, terms,
                   [BinaryRule(*r, p) for r, p in zip(binary, probs)],
                   [LexRule(*r, p) for r, p in zip(lexical, probs[len(binary):])],
                   root=nts[0])
    tokens = draw(st.lists(st.sampled_from(terms), min_size=2, max_size=5))
    return g, tokens


@settings(max_examples=60, deadline=None, database=None)
@given(grammars_and_sentences())
def test_counts_match_enumeration(case):
    g, tokens = case
    chart = cyk_fill(g, tokens)
    derivs = enumerate_derivations(g, tokens)
    assert count_parses(chart) == len(derivs)
    if not derivs:
        with pytest.raises(NoParseError):
            expected_counts(g, tokens, chart)
        return
    oracle = expected_usage(derivs, len(g.rules()))
    np.testing.assert_allclose(expected_counts(g, tokens, chart), oracle, rtol=1e-9, atol=1e-15)
