import math
import random

import pytest

from bruteforce import enumerate_derivations, random_cnf_grammar, random_sentence
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule
from xpcfg.chart import (
    NoParseError,
    ParseError,
    count_parses,
    cyk_fill,
    format_report,
    format_tree,
    likelihood_ratio,
    parse_report,
    sci_from_log,
    tree_to_paren,
    unconstrained_count,
    viterbi_parse,
)

FIVE_WORDS = "the cat chases the ball".split()
FIVE_WORDS_INSIDE = 1.0 * (0.8 * 0.4 * 0.15) * (0.9 * 0.65 * (0.8 * 0.4 * 0.2))
# every binary bracketing of n words is one derivation: Catalan(n - 1) of them
CATALAN_GRAMMAR = CnfGrammar(
    ["S"], ["a"], [BinaryRule("S", "S", "S", 0.25)], [LexRule("S", "a", 1.0)], root="S")


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

    def test_likelihood_ratio_explicit_argument(self, xbar_implicit, sentence14):
        chart = cyk_fill(xbar_implicit, sentence14)
        _, best = viterbi_parse(chart, xbar_implicit)
        ratio = likelihood_ratio(chart, best)
        assert ratio == pytest.approx(likelihood_ratio(chart), rel=1e-9)
        assert 0.0 < ratio <= 1.0

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

    @pytest.mark.parametrize("n", [36, 37])
    def test_count_across_int64_range(self, n):
        # Catalan(35) lies below 2^63 and Catalan(36) above it
        count = count_parses(cyk_fill(CATALAN_GRAMMAR, ["a"] * n))
        assert type(count) is int
        assert count == math.comb(2 * (n - 1), n - 1) // n
        assert (count < 2 ** 63) == (n == 36)

    def test_count_zero_iff_inside_zero(self, xbar_cnf):
        chart = cyk_fill(xbar_cnf, FIVE_WORDS)
        vit, _, _ = chart.viterbi_tables()
        nt_i = chart.index.nt_i
        for i in range(5):
            for k in range(i + 1, 6):
                for a in xbar_cnf.nonterminals:
                    lp = chart.inside_log(i, k, a)
                    assert (chart.count(i, k, a) == 0) == (lp == float("-inf"))
                    # the chart's max never exceeds its sum
                    assert vit[i, k, nt_i[a]] <= lp + 1e-12


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
                _, vit = viterbi_parse(chart, g)
                assert vit == pytest.approx(best, rel=1e-12, abs=0)
                assert vit <= chart.sentence_prob() * (1 + 1e-12)
                checked += 1
        assert checked >= 100
