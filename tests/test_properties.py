"""Property tests: the chart's derivation counts and expected rule counts
agree with exhaustive enumeration on random small grammars that include
zero-probability rules; the corpus passes, which parse each distinct
sentence once in batches of one length, agree with per-sentence sums; an
M-step and prune keep the grammar normalised without reviving a zeroed
rule; and saved rule files load back with the exact probabilities."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import enumerate_derivations, expected_usage
from xpcfg import chart as chart_module
from xpcfg.chart import NEG_INF, NoParseError, ParseError, count_parses, cyk_fill, expected_counts
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule
from xpcfg.metrics import corpus_logprobs
from xpcfg.training import _estep, parse_rules, prune, reestimate, save_rules

@st.composite
def grammars(draw):
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
    return g


@st.composite
def grammars_and_sentences(draw):
    g = draw(grammars())
    return g, draw(st.lists(st.sampled_from(g.terminals), min_size=2, max_size=5))


@st.composite
def grammars_and_corpora(draw):
    """A grammar with a word "dead" whose one nonterminal is no daughter, and
    a corpus of repeated sentences of mixed lengths, with one sentence that
    has no parse and one with a token outside the vocabulary."""
    g = draw(grammars())
    g = CnfGrammar(g.nonterminals + ["D"], g.terminals + ["dead"], g.binary,
                   g.lexical + [LexRule("D", "dead", 1.0)], g.root)
    distinct = draw(st.lists(st.lists(st.sampled_from(g.terminals[:-1]), min_size=1, max_size=6),
                             min_size=1, max_size=8))
    distinct += [["dead"] + distinct[0], distinct[-1] + ["unknown"]]
    corpus = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    return g, corpus + distinct + distinct[-2:]


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


@settings(max_examples=40, deadline=None, database=None)
@given(grammars_and_corpora())
def test_corpus_passes_match_per_sentence_sums(case):
    g, corpus = case
    counts, ll, skipped, logprobs = np.zeros(len(g.rules())), 0.0, 0, []
    for tokens in corpus:
        try:
            chart = cyk_fill(g, tokens)
        except ParseError:
            logprobs.append(NEG_INF)
            skipped += 1
            continue
        logprobs.append(chart.sentence_logprob())
        if logprobs[-1] == NEG_INF:
            skipped += 1
            continue
        ll += logprobs[-1]
        counts += expected_counts(g, tokens, chart)
    assert skipped >= 4  # each sentence without a parse is there twice
    # batches as large as the corpus allows, and batches of one
    for block in (chart_module._BATCH_BLOCK, 1):
        saved, chart_module._BATCH_BLOCK = chart_module._BATCH_BLOCK, block
        try:
            got_counts, got_ll, got_skipped = _estep(g, corpus)
            got_logprobs = corpus_logprobs(g, corpus)
        finally:
            chart_module._BATCH_BLOCK = saved
        assert got_skipped == skipped
        assert got_ll == pytest.approx(ll, rel=1e-12, abs=0)
        np.testing.assert_allclose(got_counts, counts, rtol=1e-12, atol=0)
        assert got_logprobs == pytest.approx(logprobs, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None, database=None)
@given(grammars(), st.data())
def test_reestimate_and_prune_keep_normalisation(g, data):
    corpus = data.draw(st.lists(st.lists(st.sampled_from(g.terminals), min_size=1, max_size=5),
                                min_size=1, max_size=6))
    threshold = data.draw(st.sampled_from([0.0, 1e-5, 0.05, 0.3]))
    counts, _, _ = _estep(g, corpus)
    out, _ = prune(reestimate(g, counts), threshold)
    for before, after in zip(g.rules(), out.rules()):
        assert before.prob > 0.0 or after.prob == 0.0
    for mother, total in out.mother_totals(nonzero_only=True).items():
        assert abs(total - 1.0) <= 1e-9, mother


@settings(max_examples=60, deadline=None, database=None)
@given(grammars(), st.booleans())
def test_save_rules_round_trip_is_exact(g, include_zero):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rules.txt")
        save_rules(g, path, include_zero=include_zero)
        with open(path) as fh:
            # the root may have no live rule, and so no line, when zeros are left out
            back = parse_rules(fh.read(), root=g.root if include_zero else None)
    assert back.rules() == [r for r in g.rules() if include_zero or r.prob > 0.0]
