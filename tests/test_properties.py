"""Property tests: the chart's derivation counts and expected rule counts
agree with exhaustive enumeration on random small grammars that include
zero-probability rules; the corpus passes, which parse each distinct
sentence once in batches of one length, agree with per-sentence sums; an
M-step and prune keep the grammar normalised without reviving a zeroed
rule; saved rule files load back with the exact probabilities and root; and
printed formalism grammars parse back to the same declarations."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import enumerate_derivations, expected_usage
from xpcfg import chart as chart_module
from xpcfg.chart import NEG_INF, NoParseError, ParseError, count_parses, cyk_fill, expected_counts
from xpcfg.grammar import (
    EQ,
    NEQ,
    PRESENT,
    Alias,
    BinaryRule,
    CatPattern,
    Category,
    CnfGrammar,
    Constraint,
    EqBarLevel,
    EqConst,
    EqSlots,
    FeatureDecl,
    FeatureTest,
    Grammar,
    GrammarError,
    LexRule,
    PsRule,
    WordDecl,
    grammar_to_text,
    parse_grammar,
)
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
    live = {r.mother for r in out.rules() if r.prob > 0.0}
    for mother, total in out.mother_totals().items():
        assert mother not in live or abs(total - 1.0) <= 1e-9, mother


@settings(max_examples=60, deadline=None, database=None)
@given(grammars(), st.booleans())
def test_save_rules_round_trip_is_exact(g, include_zero):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rules.txt")
        save_rules(g, path, include_zero=include_zero)
        with open(path) as fh:
            text = fh.read()
    kept = [r for r in g.rules() if include_zero or r.prob > 0.0]
    symbols = {r.mother for r in kept} | {d for r in g.binary if r in kept for d in (r.left, r.right)}
    if g.root not in symbols:
        # with zeros left out, the root may be on no line: loading names it
        with pytest.raises(GrammarError, match="root"):
            parse_rules(text)
        return
    back = parse_rules(text)
    assert back.root == g.root
    assert back.rules() == kept
    # an explicit root wins over the recorded one
    assert parse_rules(text, root=kept[-1].mother).root == kept[-1].mother


VALUES = ["+", "-", "0", "1", "2", "Sg"]
# probabilities with and without annotation, with 1e-05-scale and 17-digit
# ones among them
PROBS = st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True),
                  st.sampled_from([1.0, 1e-05, 2.5e-07, 0.123456789012345, 0.30000000000000004]))


@st.composite
def formalism_grammars(draw):
    """Grammars with every kind of declaration: features, aliases, PS rules
    and words with and without probabilities, and constraints whose patterns
    hold each kind of test and whose equations are of each kind."""
    features = [FeatureDecl("F%d" % i, tuple(draw(st.lists(st.sampled_from(VALUES), min_size=1,
                                                             max_size=4, unique=True))))
                for i in range(draw(st.integers(1, 3)))]
    feature = st.sampled_from(features)
    slot = st.integers(0, 2)

    @st.composite
    def category(draw):
        chosen = draw(st.lists(feature, unique=True))
        return Category({f.name: draw(st.sampled_from(f.values)) for f in chosen})

    @st.composite
    def test(draw):
        f, kind = draw(feature), draw(st.sampled_from([PRESENT, EQ, NEQ]))
        return FeatureTest(f.name, kind, None if kind == PRESENT else draw(st.sampled_from(f.values)))

    @st.composite
    def equation(draw):
        f, kind = draw(feature), draw(st.sampled_from([EqConst, EqSlots, EqBarLevel]))
        if kind is EqConst:
            return EqConst(f.name, draw(slot), draw(st.sampled_from(f.values)))
        if kind is EqSlots:
            return EqSlots(f.name, draw(slot), draw(slot))
        deltas = draw(st.lists(st.sampled_from([0, -1, -2]), min_size=1, max_size=3))
        return EqBarLevel(f.name, draw(st.integers(1, 2)), tuple(deltas))

    cats = draw(st.lists(category(), min_size=1, max_size=4, unique=True))
    aliases = [Alias("A%d" % i, c) for i, c in enumerate(cats)]
    alias = st.sampled_from([a.name for a in aliases])
    ps_rules = [PsRule("R%d" % i, draw(alias), tuple(draw(st.lists(alias, max_size=3))), draw(PROBS))
                for i in range(draw(st.integers(0, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(["w0", "w1", "w2"]), alias), max_size=4,
                          unique=True))
    words = [WordDecl(w, pre, draw(PROBS)) for w, pre in pairs]
    constraints = [Constraint("C%d" % i, tuple(CatPattern(tuple(draw(st.lists(test(), max_size=3))))
                                               for _ in range(3)),
                              tuple(draw(st.lists(equation(), max_size=4))))
                   for i in range(draw(st.integers(0, 3)))]
    return Grammar(features, aliases, ps_rules, words, constraints)


@settings(max_examples=100, deadline=None, database=None)
@given(formalism_grammars())
def test_grammar_text_round_trip(g):
    assert parse_grammar(grammar_to_text(g)) == g
