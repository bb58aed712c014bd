import inspect
import math
import random
import sys

import numpy as np
import pytest

import xpcfg.chart as chart_module
from bruteforce import enumerate_derivations, random_cnf_grammar, random_sentence
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule
from xpcfg.chart import (
    Chart,
    NoParseError,
    ParseError,
    batches,
    corpus_map,
    count_parses,
    cyk_fill,
    expected_counts,
    format_report,
    format_tree,
    likelihood_ratio,
    parse_report,
    sci_from_log,
    tree_to_paren,
    unconstrained_count,
    viterbi_parse,
)
from xpcfg.generate import GenConfig, sample_corpus

FIVE_WORDS = "the cat chases the ball".split()
FIVE_WORDS_INSIDE = 1.0 * (0.8 * 0.4 * 0.15) * (0.9 * 0.65 * (0.8 * 0.4 * 0.2))
# every binary bracketing of n words is one derivation: Catalan(n - 1) of them
CATALAN_GRAMMAR = CnfGrammar(
    ["S"], ["a"], [BinaryRule("S", "S", "S", 0.25)], [LexRule("S", "a", 1.0)], root="S")


def unit_probabilities(grammar):
    """The grammar with every live rule's probability set to 1: its inside
    values are then derivation counts."""
    return grammar.replace_probs([1.0 if r.prob > 0.0 else 0.0 for r in grammar.rules()])


def as_tuple(tree):
    """A Tree in the oracle's nested-tuple form."""
    if isinstance(tree.children[0], str):
        return tree.label, tree.children[0]
    return (tree.label,) + tuple(as_tuple(c) for c in tree.children)


class TestInside:
    def test_single_parse_probability(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        assert chart.sentence_prob() == pytest.approx(FIVE_WORDS_INSIDE, rel=1e-12, abs=0)

    def test_unparseable_sentence(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, "chases chases".split())
        assert chart.sentence_prob() == 0.0
        assert chart.sentence_logprob() == float("-inf")

    def test_unknown_token_names_position(self, xbar_cnf):
        with pytest.raises(ParseError, match=r"'dog' at position 1"):
            cyk_fill(xbar_cnf, ["the", "dog"])

    def test_empty_sentence_rejected(self, xbar_cnf):
        with pytest.raises(ParseError):
            cyk_fill(xbar_cnf, [])

    def test_inside_cell_access(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        assert chart.inside(0, 2, "N1") == pytest.approx(0.8 * 0.4 * 0.15, rel=1e-12, abs=0)
        assert chart.inside(0, 2, "V1") == 0.0

    def test_extended_range_no_underflow(self):
        # right-linear chain with tiny lexical probability; the sentence
        # probability is far below double-precision range
        g = CnfGrammar(
            ["S", "A"], ["a"],
            [BinaryRule("S", "A", "S", 0.9), BinaryRule("S", "A", "A", 0.1)],
            [LexRule("A", "a", 1e-3)],
            root="S")
        n = 300
        chart = cyk_fill(g, ["a"] * n)
        expected = (n - 2) * math.log(0.9) + math.log(0.1) + n * math.log(1e-3)
        assert chart.sentence_logprob() == pytest.approx(expected, rel=1e-9)
        assert chart.sentence_prob() == 0.0  # underflows only on conversion
        assert count_parses(chart) == 1


class TestViterbi:
    def test_unique_parse_matches_inside(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        tree, prob = viterbi_parse(chart, xbar_cnf)
        assert prob == pytest.approx(chart.sentence_prob(), rel=1e-12, abs=0)
        assert tree_to_paren(tree) == \
            "(V2 (N1 (DT the) (N0 cat)) (V1 (V0 chases) (N1 (DT the) (N0 ball))))"
        assert tree.tokens() == FIVE_WORDS

    def test_likelihood_one_when_unambiguous(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        assert count_parses(chart) == 1
        assert likelihood_ratio(chart) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_no_parse_raises(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, "chases chases".split())
        with pytest.raises(NoParseError):
            viterbi_parse(chart, xbar_cnf)
        with pytest.raises(NoParseError):
            likelihood_ratio(chart)

    def test_likelihood_ratio_is_viterbi_over_total(self, xbar_implicit, sentence14):
        chart = cyk_fill(xbar_implicit, sentence14)
        _, best = viterbi_parse(chart, xbar_implicit)
        ratio = likelihood_ratio(chart)
        assert ratio == pytest.approx(best / chart.sentence_prob(), rel=1e-9)
        assert 0.0 < ratio <= 1.0

    def test_likelihood_ratio_when_viterbi_prob_underflows(self):
        # the one parse of 120 words has log-probability near -911, so the
        # probability viterbi_parse returns is 0.0; the ratio is still 1, to
        # within the rounding of two logs of that size
        g = CnfGrammar(["S", "A"], ["a", "b"],
                       [BinaryRule("S", "A", "S", 0.5), BinaryRule("S", "A", "A", 0.5)],
                       [LexRule("A", "a", 1e-3), LexRule("A", "b", 1.0 - 1e-3)], root="S")
        chart = cyk_fill(g, ["a"] * 120)
        _, prob = viterbi_parse(chart)
        assert prob == 0.0
        assert likelihood_ratio(chart) == pytest.approx(1.0, rel=1e-9, abs=0)

    @pytest.mark.parametrize("block", [1, 2 ** 11])
    def test_tiled_fill_matches_untiled(self, monkeypatch, xbar_implicit, sentence14, block):
        # a bound of 1 fills one cell at a time; 2^11 cuts the widths of 2
        # to 8 splits into blocks of 2 to 8 cells (N = 11), the last shorter
        whole = cyk_fill(xbar_implicit, sentence14)
        monkeypatch.setattr(chart_module, "_BATCH_BLOCK", block)
        tiled = cyk_fill(xbar_implicit, sentence14)
        assert np.array_equal(tiled.viterbi_tables(), whole.viterbi_tables())
        assert tree_to_paren(viterbi_parse(tiled)[0]) == tree_to_paren(viterbi_parse(whole)[0])

    @pytest.mark.parametrize("block", [1, 2 ** 11, 2 ** 17])
    def test_batched_fill_matches_per_sentence(self, monkeypatch, xbar_implicit, sentence14, block):
        # 1 and 2^11 cut every batch to one sentence, tiled by cell; 2^17,
        # the default, fills several sentences of one length as one batch
        known = [tuple(s) for s in sample_corpus(xbar_implicit, GenConfig(count=60, seed=3))]
        known += [tuple(sentence14), ("chases", "chases")]  # the last has no parse
        whole = {s: cyk_fill(xbar_implicit, s) for s in known}
        monkeypatch.setattr(chart_module, "_BATCH_BLOCK", block)
        # the empty sentence and the unknown word are left out
        charts = [chart for batch in batches(xbar_implicit, dict.fromkeys(known + [(), ("the", "dog")]))
                  for chart in batch.charts()]
        assert sorted(tuple(c.tokens) for c in charts) == sorted(whole)
        # the batch contract: Viterbi and count tables are bit-identical
        # whatever the batch; log-probabilities and expected counts are equal
        # to rel 1e-13, as the BLAS rounds a product's rows by its row count
        for chart in charts:
            ref = whole[tuple(chart.tokens)]
            assert chart.viterbi_tables().tobytes() == ref.viterbi_tables().tobytes()
            # the inside and count tables are filled on first use
            assert chart.sentence_logprob() == pytest.approx(ref.sentence_logprob(), rel=1e-13, abs=0)
            assert count_parses(chart) == count_parses(ref)
            # expected counts weight the chart's own row of its batch
            if ref.sentence_logprob() != -math.inf:
                np.testing.assert_allclose(expected_counts(xbar_implicit, chart.tokens, chart),
                                           expected_counts(xbar_implicit, chart.tokens, ref),
                                           rtol=1e-13, atol=0)
        batched = max(len(c.viterbi_tables().base) for c in charts) > 1
        assert batched == (block == 2 ** 17)

    def test_tie_break_prefers_lowest_rule_id(self):
        g = CnfGrammar(
            ["S", "A", "B"], ["x"],
            [BinaryRule("S", "A", "A", 0.25), BinaryRule("S", "B", "B", 0.25)],
            [LexRule("A", "x", 0.25), LexRule("B", "x", 0.25)],
            root="S")
        chart = cyk_fill(g, ["x", "x"])
        tree, prob = viterbi_parse(chart, g)
        assert tree.label == "S"
        assert [c.label for c in tree.children] == ["A", "A"]
        assert prob == pytest.approx(0.25 ** 3)

    def test_tie_break_prefers_lowest_split(self):
        # every binary tree over four words has probability 0.25 ** 3
        chart = cyk_fill(CATALAN_GRAMMAR, ["a"] * 4)
        tree, prob = viterbi_parse(chart)
        assert tree_to_paren(tree) == "(S (S a) (S (S a) (S (S a) (S a))))"
        assert prob == pytest.approx(0.25 ** 3, rel=1e-12, abs=0)

    def test_deep_chain_without_recursion(self):
        # the parse of a 300-word right-linear chain is 300 levels deep; it
        # is built, walked and printed under a recursion limit of 150 more
        # frames than the test already uses
        g = CnfGrammar(["S", "A"], ["a"],
                       [BinaryRule("S", "A", "S", 0.5), BinaryRule("S", "A", "A", 0.5)],
                       [LexRule("A", "a", 1.0)], root="S")
        n = 300
        chart = cyk_fill(g, ["a"] * n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            tree, _ = viterbi_parse(chart)
            paren, brackets = format_tree(tree, "paren"), format_tree(tree, "appendix3")
            tokens, text = tree.tokens(), repr(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert tokens == ["a"] * n
        assert text == paren == "(S (A a) " * (n - 2) + "(S (A a) (A a))" + ")" * (n - 2)
        assert brackets == "[S [A a A] " * (n - 2) + "[S [A a A] [A a A] S]" + " S]" * (n - 2)

    def test_viterbi_never_exceeds_inside(self, xbar_implicit, sentence14):
        chart = cyk_fill(xbar_implicit, sentence14)
        _, prob = viterbi_parse(chart, xbar_implicit)
        assert prob <= chart.sentence_prob() * (1 + 1e-12)


class TestCounts:
    def test_unambiguous_count(self, xbar_cnf):
        assert count_parses(cyk_fill(xbar_cnf, FIVE_WORDS)) == 1

    def test_unparseable_count_zero(self, xbar_cnf):
        assert count_parses(cyk_fill(xbar_cnf, "chases chases".split())) == 0

    def test_count_is_deterministic(self, xbar_implicit, sentence14):
        a = count_parses(cyk_fill(xbar_implicit, sentence14))
        b = count_parses(cyk_fill(xbar_implicit, sentence14))
        assert a == b and isinstance(a, int) and a > 0

    def test_monotone_under_rule_addition(self, xbar_implicit, xbar_cnf, sentence14):
        base = count_parses(cyk_fill(xbar_cnf, sentence14))
        richer = count_parses(cyk_fill(xbar_implicit, sentence14))
        assert richer >= base

    @pytest.mark.parametrize("n", [31, 32, 36, 37])
    def test_count_across_int64_range(self, n):
        # Catalan(30) lies below 2^53 and Catalan(31), which is odd, above
        # it, where float64 is no longer exact; Catalan(35) lies below 2^63
        # and Catalan(36) above it
        count = count_parses(cyk_fill(CATALAN_GRAMMAR, ["a"] * n))
        assert type(count) is int
        assert count == math.comb(2 * (n - 1), n - 1) // n
        assert (count < 2 ** 53) == (n <= 31)
        assert (count < 2 ** 63) == (n <= 36)

    def test_batch_counts_exact_across_2_53(self):
        # one batch of two sentences: the count that passes 2^53 turns the
        # whole table to Python ints, and the sentence with no parse keeps 0
        g = CnfGrammar(["S", "B"], ["a", "b"], [BinaryRule("S", "S", "S", 0.25)],
                       [LexRule("S", "a", 1.0), LexRule("B", "b", 1.0)], root="S")
        (batch,) = batches(g, [("a",) * 32, ("a",) * 31 + ("b",)])
        assert [count_parses(chart) for chart in batch.charts()] == [math.comb(62, 31) // 32, 0]

    def test_count_zero_iff_inside_zero(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        vit = chart.viterbi_tables()
        nt_i = chart.index.nt_i
        for i in range(5):
            for k in range(i + 1, 6):
                for a in xbar_cnf.nonterminals:
                    lp = chart.inside_log(i, k, a)
                    assert (chart.count(i, k, a) == 0) == (lp == float("-inf"))
                    # the chart's max never exceeds its sum
                    assert vit[0, i, k - i, nt_i[a]] <= lp + 1e-12

    @pytest.mark.parametrize("case", ["catalan", "sentence14"])
    def test_unit_probability_inside_equals_count(self, case, xbar_implicit, sentence14):
        # with every live rule at probability 1 the inside and counting
        # passes sum the same products; float64 counts are exact below 2^53
        if case == "catalan":
            charts = [cyk_fill(unit_probabilities(CATALAN_GRAMMAR), ["a"] * n) for n in range(1, 32)]
        else:
            charts = [cyk_fill(unit_probabilities(xbar_implicit), sentence14)]
            assert count_parses(charts[0]) == 18978
        checked = 0
        for chart in charts:
            for i in range(chart.n):
                for k in range(i + 1, chart.n + 1):
                    for a in chart.grammar.nonterminals:
                        count = chart.count(i, k, a)
                        if count < 2 ** 53:
                            assert chart.inside(i, k, a) == pytest.approx(count, rel=1e-12, abs=0)
                            checked += 1
        assert checked == sum(c.n * (c.n + 1) // 2 * len(c.grammar.nonterminals) for c in charts)


class TestLayout:
    @pytest.mark.parametrize("f", [count_parses, Chart.sentence_logprob])
    def test_corpus_map_equals_per_sentence_fills(self, xbar_implicit, mixed_corpus, f):
        # corpus order, with None where the unknown token leaves a sentence out
        expect = []
        for tokens in mixed_corpus:
            try:
                expect.append(f(cyk_fill(xbar_implicit, tokens)))
            except ParseError:
                expect.append(None)
        assert expect.count(None) == 2
        assert corpus_map(xbar_implicit, mixed_corpus, f) == expect

    def test_corpus_map_fills_each_distinct_sentence_once(self, xbar_implicit, mixed_corpus):
        seen = []
        corpus_map(xbar_implicit, mixed_corpus, lambda chart: seen.append(tuple(chart.tokens)))
        known = {tuple(t) for t in mixed_corpus if "dog" not in t}
        assert sorted(seen) == sorted(known)

    def test_halves_agree_and_outside_cells_stay_empty(self, xbar_implicit, sentence14):
        # every table holds cell (i, i + w) at [b, 0, i, w] and again at
        # [b, 1, i + w, n - w]; the reverse pass reads the cells outside the
        # chart, past either end of the sentence, as weight 0
        known = [tuple(s) for s in sample_corpus(xbar_implicit, GenConfig(count=40, seed=5))]
        known += [tuple(sentence14), ("chases", "chases")]  # the last has no parse
        sentences = batched = 0
        for batch in batches(xbar_implicit, dict.fromkeys(known)):
            n = len(batch.sentences[0])
            by_start = np.zeros((n + 1, n + 1), dtype=bool)
            for i in range(n):
                by_start[i, 1:n - i + 1] = True
            i, w = np.nonzero(by_start)
            by_end = np.zeros_like(by_start)
            by_end[i + w, n - w] = True
            for table, empty in ((batch.inside, 0.0), (batch.viterbi, -math.inf), (batch.counts, 0)):
                assert np.array_equal(table[:, 0, i, w], table[:, 1, i + w, n - w])
                assert (table[:, 0][:, ~by_start] == empty).all()
                assert (table[:, 1][:, ~by_end] == empty).all()
            sentences += len(batch.sentences)
            batched += len(batch.sentences) > 1
        assert sentences == len(set(known)) and batched


class TestRange:
    """Inside values are scaled by span; a static bound per batch picks
    float64, np.longdouble, or a ParseError that names the length."""

    # S -> A S at 1e-300 against S -> A A: a derivation of n words is
    # 1e-300^(n - 2) below the best ratio, beyond float64 from 3 words and
    # beyond np.longdouble's 1e-4951 by 20
    TINY = CnfGrammar(["S", "A"], ["a"],
                      [BinaryRule("S", "A", "S", 1e-300), BinaryRule("S", "A", "A", 1.0 - 1e-300)],
                      [LexRule("A", "a", 1.0)], root="S")

    def test_beyond_every_float_type_raises(self):
        with pytest.raises(ParseError, match=r"\b20 words"):
            cyk_fill(self.TINY, ["a"] * 20)

    def test_beyond_float64_runs_in_longdouble(self):
        chart = cyk_fill(self.TINY, ["a"] * 3)
        assert chart.batch.inside.dtype == np.longdouble
        expected = (3 - 2) * math.log(1e-300) + math.log(1.0 - 1e-300)
        assert chart.sentence_logprob() == pytest.approx(expected, rel=1e-13, abs=0)

    def test_xbar_sentences_run_in_float64(self, xbar_cnf, xbar_implicit, sentence14):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=1000, seed=7, max_length=50))
        fifty = next(s for s in corpus if len(s) == 50)
        for tokens in (sentence14, fifty):
            assert cyk_fill(xbar_implicit, tokens).batch.inside.dtype == np.float64


class TestUnconstrainedCount:
    def test_twenty_words_ten_nonterminals(self):
        assert unconstrained_count(20, 10) == 17672631900000000000000000000

    def test_thirty_words_ten_nonterminals(self):
        assert unconstrained_count(30, 10) == \
            100224221665136800000000000000000000000000000

    def test_two_words(self):
        assert unconstrained_count(2, 7) == 7

    def test_catalan_recurrence(self):
        # with one nonterminal the count reduces to the Catalan numbers
        cat = [unconstrained_count(k + 1, 1) for k in range(12)]
        for k in range(1, 12):
            assert cat[k] == sum(cat[i] * cat[k - 1 - i] for i in range(k))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            unconstrained_count(0, 5)
        with pytest.raises(ValueError):
            unconstrained_count(5, 0)


class TestReports:
    def test_report_self_consistency(self, xbar_implicit, sentence14):
        rep = parse_report(xbar_implicit, sentence14)
        assert rep.best_log <= rep.all_log
        assert rep.likelihood == pytest.approx(
            math.exp(rep.best_log - rep.all_log), rel=1e-12, abs=0)
        assert 0.0 < rep.likelihood <= 1.0

    def test_report_format(self, xbar_cnf):
        rep = parse_report(xbar_cnf, FIVE_WORDS)
        line = format_report(rep)
        assert line == "best 1.797120e-03 all 1.797120e-03 likelihood 1.000000 count 1"

    def test_sci_from_log(self):
        assert sci_from_log(math.log(5.809595e-33)) == "5.809595e-33"
        assert sci_from_log(math.log(1.064649e-30)) == "1.064649e-30"
        assert sci_from_log(math.log(1.0)) == "1.000000e+00"
        assert sci_from_log(float("-inf")) == "0.000000e+00"
        # mantissa rounding that would print 10.000000 carries into the exponent
        assert sci_from_log(math.log(9.99999999e-5)) == "1.000000e-04"

    def test_tree_formats(self, xbar_cnf):
        tree, _ = viterbi_parse(cyk_fill(xbar_cnf, FIVE_WORDS), xbar_cnf)
        assert format_tree(tree, "paren").startswith("(V2 (N1 (DT the)")
        brackets = format_tree(tree, "appendix3")
        assert brackets.startswith("[V2 [N1 [DT the DT]")
        assert brackets.endswith("N1] V1] V2]")
        with pytest.raises(ValueError):
            format_tree(tree, "xml")


class TestOracleEquivalence:
    """Chart results must agree with exhaustive derivation enumeration."""

    def test_duplicate_lexical_rules_add_up(self):
        # two rules A -> a are two derivations of each word, each taking
        # its own probability
        g = CnfGrammar(["S", "A"], ["a"], [BinaryRule("S", "A", "A", 1.0)],
                       [LexRule("A", "a", 0.5), LexRule("A", "a", 0.5)], root="S")
        chart = cyk_fill(g, ["a", "a"])
        derivs = enumerate_derivations(g, ["a", "a"])
        assert count_parses(chart) == len(derivs) == 4
        assert chart.sentence_prob() == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_duplicate_binary_rules_score_apart(self):
        # two rules S -> A A are two derivations of the pair: inside sums
        # them, Viterbi takes the one of lower rule id at its own 0.5
        g = CnfGrammar(["S", "A"], ["a"],
                       [BinaryRule("S", "A", "A", 0.5), BinaryRule("S", "A", "A", 0.5)],
                       [LexRule("A", "a", 1.0)], root="S")
        chart = cyk_fill(g, ["a", "a"])
        derivs = enumerate_derivations(g, ["a", "a"])
        assert count_parses(chart) == len(derivs) == 2
        assert chart.sentence_prob() == pytest.approx(1.0, rel=1e-12, abs=0)
        tree, prob = viterbi_parse(chart)
        assert prob == pytest.approx(0.5, rel=1e-12, abs=0)
        assert as_tuple(tree) == ("S", ("A", "a"), ("A", "a"))
        assert likelihood_ratio(chart) == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_against_bruteforce(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(40):
            g = random_cnf_grammar(rng)
            for _ in range(6):
                tokens = random_sentence(rng, g, max_len=6)
                derivs = enumerate_derivations(g, tokens)
                chart = cyk_fill(g, tokens)
                assert count_parses(chart) == len(derivs)
                if not derivs:
                    assert chart.sentence_prob() == 0.0
                    continue
                total = sum(p for p, _, _ in derivs)
                best = max(p for p, _, _ in derivs)
                assert chart.sentence_prob() == pytest.approx(total, rel=1e-12, abs=0)
                tree, vit = viterbi_parse(chart, g)
                assert vit == pytest.approx(best, rel=1e-12, abs=0)
                # the tree itself is a best derivation, not only its score
                assert as_tuple(tree) in [t for p, t, _ in derivs if best - p <= 1e-12 * best]
                assert vit <= chart.sentence_prob() * (1 + 1e-12)
                checked += 1
        assert checked >= 100
