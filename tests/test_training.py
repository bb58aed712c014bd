import math
import random

import numpy as np
import pytest

from bruteforce import enumerate_derivations, expected_usage, random_cnf_grammar
from xpcfg import fixtures
from xpcfg.chart import NEG_INF, NoParseError, count_parses, cyk_fill
from xpcfg.generate import GenConfig, sample_corpus
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule
from xpcfg.metrics import corpus_logprobs
from xpcfg.training import (
    TrainConfig,
    expected_counts,
    load_rules,
    parse_rules,
    prune,
    reestimate,
    save_rules,
    train,
)

FIVE_WORDS = "the cat chases the ball".split()


class TestExpectedCounts:
    def test_lexical_counts_sum_to_length(self, xbar_cnf, xbar_implicit):
        # every word is covered by exactly one preterminal in each derivation
        for g, tokens in ((xbar_cnf, FIVE_WORDS),
                          (xbar_implicit, "the cat chases the ball with the boy".split())):
            counts = expected_counts(g, tokens)
            lexical = counts[len(g.binary):].sum()
            assert lexical == pytest.approx(len(tokens), rel=1e-12, abs=0)

    def test_unparseable_rejected(self, xbar_cnf):
        with pytest.raises(NoParseError):
            expected_counts(xbar_cnf, "chases chases".split())

    def test_unambiguous_counts_are_integers(self, xbar_cnf):
        counts = expected_counts(xbar_cnf, FIVE_WORDS)
        by_rule = {}
        for i, r in enumerate(xbar_cnf.rules()):
            if counts[i] > 1e-12:
                key = (r.mother, r.left, r.right) if isinstance(r, BinaryRule) \
                    else (r.mother, r.word)
                by_rule[key] = counts[i]
        assert by_rule[("V2", "N1", "V1")] == pytest.approx(1.0, abs=1e-12)
        assert by_rule[("N1", "DT", "N0")] == pytest.approx(2.0, abs=1e-12)
        assert by_rule[("DT", "the")] == pytest.approx(2.0, abs=1e-12)
        assert ("V1", "V1", "A1") not in by_rule

    def test_zero_probability_rule_gets_zero_count(self, xbar_cnf):
        probs = [r.prob for r in xbar_cnf.rules()]
        # zero out the adverbial rule, shift its mass to the other V1 rule
        rid_vp2 = next(i for i, r in enumerate(xbar_cnf.binary)
                       if (r.mother, r.left, r.right) == ("V1", "V1", "A1"))
        rid_vp1 = next(i for i, r in enumerate(xbar_cnf.binary)
                       if (r.mother, r.left, r.right) == ("V1", "V0", "N1"))
        probs[rid_vp2], probs[rid_vp1] = 0.0, 1.0
        g = xbar_cnf.replace_probs(probs)
        counts = expected_counts(g, FIVE_WORDS)
        assert counts[rid_vp2] == 0.0

    def test_weighted_average_over_parses(self, xbar_implicit):
        tokens = "the cat chases the ball with the boy".split()
        derivs = enumerate_derivations(xbar_implicit, tokens)
        assert len(derivs) > 1
        oracle = expected_usage(derivs, len(xbar_implicit.rules()))
        counts = expected_counts(xbar_implicit, tokens)
        np.testing.assert_allclose(counts, oracle, rtol=1e-9, atol=1e-15)

    def test_deep_underflow_counts_stay_exact(self):
        # unambiguous right-linear chain; the sentence probability is around
        # exp(-2000), far below double range, yet expected usage counts are
        # plain integers
        g = CnfGrammar(
            ["S", "A"], ["a"],
            [BinaryRule("S", "A", "S", 0.9), BinaryRule("S", "A", "A", 0.1)],
            [LexRule("A", "a", 1e-3)],
            root="S")
        n = 300
        counts = expected_counts(g, ["a"] * n)
        assert np.all(np.isfinite(counts))
        assert counts[0] == pytest.approx(n - 2, rel=1e-9)   # S -> A S
        assert counts[1] == pytest.approx(1.0, rel=1e-9)     # S -> A A
        assert counts[2] == pytest.approx(n, rel=1e-9)       # A -> a

    def test_duplicate_lexical_rules(self):
        g = CnfGrammar(["S", "A"], ["a"], [BinaryRule("S", "A", "A", 1.0)],
                       [LexRule("A", "a", 0.5), LexRule("A", "a", 0.5)], root="S")
        oracle = expected_usage(enumerate_derivations(g, ["a", "a"]), 3)
        np.testing.assert_allclose(expected_counts(g, ["a", "a"]), oracle, rtol=1e-12, atol=0)
        np.testing.assert_allclose(oracle, [1.0, 1.0, 1.0], rtol=1e-12)

    def test_log_domain_booking(self, xbar_implicit):
        # the counts are booked from span-scaled tables, whose factors cancel
        tokens = "the cat chases the ball with the boy".split()
        oracle = expected_usage(enumerate_derivations(xbar_implicit, tokens),
                                len(xbar_implicit.rules()))
        np.testing.assert_allclose(expected_counts(xbar_implicit, tokens), oracle,
                                   rtol=1e-9, atol=1e-15)

    def test_randomized_against_bruteforce(self):
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            g = random_cnf_grammar(rng)
            try:
                corpus = sample_corpus(g, GenConfig(count=3, seed=checked,
                                                    max_depth=20, max_length=7))
            except Exception:
                continue
            for tokens in corpus:
                derivs = enumerate_derivations(g, tokens)
                oracle = expected_usage(derivs, len(g.rules()))
                counts = expected_counts(g, tokens)
                np.testing.assert_allclose(counts, oracle, rtol=1e-9, atol=1e-15)
                checked += 1


class TestGradientOracle:
    """Expected counts are the gradient of the log sentence probability in
    the log rule probabilities, count(r) = d log Z / d log p(r) (CnfGrammar
    does not require normalised probabilities), checked by central
    differences on sentences beyond the enumerator's reach."""

    H = 1e-5

    def check(self, g, tokens, min_count=1e-3, rel=1e-12):
        counts = expected_counts(g, tokens)
        # each word has one preterminal, each derivation n - 1 binary nodes
        nb = len(g.binary)
        assert counts[nb:].sum() == pytest.approx(len(tokens), rel=rel, abs=0)
        assert counts[:nb].sum() == pytest.approx(len(tokens) - 1, rel=rel, abs=0)
        probs = [r.prob for r in g.rules()]
        # each log-probability is exact to a few ulps of |log Z|, which puts
        # a floor of about that over H under the differences' absolute error
        floor = 1e-15 * abs(cyk_fill(g, tokens).sentence_logprob()) / self.H
        checked = 0
        for rid in np.flatnonzero(counts > min_count):
            sides = []
            for step in (self.H, -self.H):
                perturbed = list(probs)
                perturbed[rid] *= math.exp(step)
                sides.append(cyk_fill(g.replace_probs(perturbed), tokens).sentence_logprob())
            grad = (sides[0] - sides[1]) / (2 * self.H)
            # measured on the 50-word sentence: at most 8.2e-8 relative
            # where the count is above 0.01, and 1.2e-9 absolute below
            assert abs(grad - counts[rid]) <= 1e-6 * counts[rid] + floor, rid
            checked += 1
        return counts, checked

    def test_fifty_word_xbar_sentence(self, xbar_cnf, xbar_implicit):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=1000, seed=7, max_length=50))
        tokens = next(s for s in corpus if len(s) == 50)
        assert len(xbar_implicit.rules()) == 126
        _, checked = self.check(xbar_implicit, tokens)
        assert checked == 38

    def test_three_hundred_word_chain(self):
        g = CnfGrammar(
            ["S", "A"], ["a"],
            [BinaryRule("S", "A", "S", 0.9), BinaryRule("S", "A", "A", 0.1)],
            [LexRule("A", "a", 1e-3)],
            root="S")
        # log Z is near -2,070, and carried to within about 1e-12 absolute,
        # so the counts are exact to about 1e-12 relative (4.3e-12 measured)
        counts, checked = self.check(g, ["a"] * 300, rel=1e-10)
        assert checked == 3
        np.testing.assert_allclose(counts, [298, 1, 300], rtol=1e-10, atol=0)

    def test_scale_beyond_exp_limit(self):
        # the span (0, 100) is X with inside about 0.5^99 or Y with inside
        # about exp(-714) times that, and the root only takes Y: its values
        # span more than float64's range, so the batch runs in np.longdouble
        q = 3.39e-4
        g = CnfGrammar(
            ["S", "X", "Y", "A"], ["a"],
            [BinaryRule("S", "Y", "A", 1.0), BinaryRule("X", "X", "A", 0.5),
             BinaryRule("X", "A", "A", 0.5), BinaryRule("Y", "Y", "A", q),
             BinaryRule("Y", "A", "A", 1 - q)],
            [LexRule("A", "a", 1.0)],
            root="S")
        tokens = ["a"] * 101
        chart = cyk_fill(g, tokens)
        assert chart.batch.inside.dtype == np.longdouble
        assert chart.inside_log(0, 100, "X") - chart.inside_log(0, 100, "Y") > 710
        counts, checked = self.check(g, tokens, min_count=0.5)
        assert checked == 4
        # log Z is near -780: exact to about 1e-12 relative (1.0e-12 measured)
        np.testing.assert_allclose(counts, [1, 0, 0, 98, 1, 101], rtol=1e-10, atol=0)


class TestReestimate:
    def test_ratio(self):
        g = CnfGrammar(["S", "A"], ["w"],
                       [BinaryRule("S", "A", "A", 0.5)],
                       [LexRule("S", "w", 0.5), LexRule("A", "w", 1.0)],
                       root="S")
        counts = np.array([3.0, 1.0, 5.0])
        out = reestimate(g, counts)
        assert out.binary[0].prob == pytest.approx(0.75)
        assert out.lexical[0].prob == pytest.approx(0.25)
        assert out.lexical[1].prob == pytest.approx(1.0)

    def test_uniform_counts_give_uniform_distribution(self, xbar_cnf):
        counts = np.ones(len(xbar_cnf.rules()))
        out = reestimate(xbar_cnf, counts)
        n0_rules = [r for r in out.lexical if r.mother == "N0"]
        assert all(r.prob == pytest.approx(1 / 7) for r in n0_rules)

    def test_zero_total_keeps_previous_distribution(self, xbar_cnf):
        counts = np.zeros(len(xbar_cnf.rules()))
        out = reestimate(xbar_cnf, counts)
        assert [r.prob for r in out.rules()] == [r.prob for r in xbar_cnf.rules()]

    def test_ml_consistency_on_large_sample(self, xbar_cnf):
        # relative frequencies on a large self-generated corpus recover the
        # generating probabilities
        corpus = sample_corpus(xbar_cnf, GenConfig(count=5000, seed=29))
        report = train(xbar_cnf, corpus, TrainConfig(max_iterations=1, prune_threshold=0.0))
        for est, src in zip(report.grammar.rules(), xbar_cnf.rules()):
            assert abs(est.prob - src.prob) <= 0.03, (est, src)


class TestTrain:
    def test_single_sentence_relative_frequencies(self, xbar_cnf):
        report = train(xbar_cnf, [FIVE_WORDS], TrainConfig(max_iterations=1,
                                                         prune_threshold=0.0))
        g = report.grammar
        probs = {(r.mother, r.left, r.right): r.prob for r in g.binary}
        assert probs[("V2", "N1", "V1")] == pytest.approx(1.0)
        assert probs[("N1", "DT", "N0")] == pytest.approx(1.0)  # used twice of two N1 uses
        lex = {(r.mother, r.word): r.prob for r in g.lexical}
        assert lex[("N0", "cat")] == pytest.approx(0.5)
        assert lex[("N0", "ball")] == pytest.approx(0.5)
        assert lex[("DT", "the")] == pytest.approx(1.0)

    def test_fixed_point(self, xbar_cnf):
        first = train(xbar_cnf, [FIVE_WORDS], TrainConfig(max_iterations=1,
                                                        prune_threshold=0.0))
        second = train(first.grammar, [FIVE_WORDS], TrainConfig(max_iterations=1,
                                                                prune_threshold=0.0))
        for a, b in zip(first.grammar.rules(), second.grammar.rules()):
            assert abs(a.prob - b.prob) <= 1e-9

    def test_monotone_log_likelihood_and_normalization(self, xbar_cnf, xbar_implicit):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=60, seed=5))
        report = train(xbar_implicit, corpus,
                       TrainConfig(max_iterations=8, convergence_tol=1e-12))
        lls = report.log_likelihoods
        for i in range(1, len(lls)):
            if i + 1 not in report.prune_events and i not in report.prune_events:
                assert lls[i] >= lls[i - 1] - 1e-9 * abs(lls[i - 1])
        report.grammar.check_normalized(tol=1e-9)
        # support never grows
        assert all(b <= a for a, b in zip(report.nonzero_rules, report.nonzero_rules[1:]))

    def test_on_iteration_matches_report(self, xbar_cnf, xbar_implicit):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=60, seed=5)) + [["the", "unicorn"]]
        steps = []
        report = train(xbar_implicit, corpus, TrainConfig(max_iterations=4),
                       on_iteration=steps.append)
        assert [s.iteration for s in steps] == list(range(1, report.iterations + 1))
        assert [s.log_likelihood for s in steps] == report.log_likelihoods
        assert [s.explicit_rules + s.implicit_rules for s in steps] == report.nonzero_rules
        assert [s.iteration for s in steps if s.pruned] == report.prune_events
        assert report.prune_events  # the implicit floor is pruned away
        assert [s.skipped for s in steps] == [1] * report.iterations == [report.skipped] * len(steps)
        assert (steps[-1].explicit_rules, steps[-1].implicit_rules) == \
            report.grammar.nonzero_counts()

    def test_unparseable_sentences_skipped_and_counted(self, xbar_cnf):
        corpus = [FIVE_WORDS, ["chases", "chases"], ["the", "unicorn"]]
        report = train(xbar_cnf, corpus, TrainConfig(max_iterations=1))
        assert report.skipped == 2
        assert report.coverage_before == pytest.approx(1 / 3)

    def test_nothing_parseable_rejected(self, xbar_cnf):
        with pytest.raises(NoParseError):
            train(xbar_cnf, [["chases", "chases"]], TrainConfig(max_iterations=1))

    def test_empty_corpus_rejected(self, xbar_cnf):
        with pytest.raises(ValueError):
            train(xbar_cnf, [], TrainConfig(max_iterations=1))

    def test_invalid_config_rejected(self, xbar_cnf):
        with pytest.raises(ValueError):
            train(xbar_cnf, [FIVE_WORDS], TrainConfig(max_iterations=0))
        with pytest.raises(ValueError):
            train(xbar_cnf, [FIVE_WORDS], TrainConfig(prune_threshold=1.0))
        for field in ("max_iterations", "convergence_tol", "prune_threshold"):
            with pytest.raises(ValueError):
                train(xbar_cnf, [FIVE_WORDS], TrainConfig(**{field: math.nan}))

    def test_shard_merge_equals_sequential(self, xbar_cnf, xbar_implicit):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=30, seed=3))
        whole = np.zeros(len(xbar_implicit.rules()))
        for tokens in corpus:
            whole += expected_counts(xbar_implicit, tokens)
        shard_sums = []
        for shard in (corpus[:10], corpus[10:17], corpus[17:]):
            acc = np.zeros(len(xbar_implicit.rules()))
            for tokens in shard:
                acc += expected_counts(xbar_implicit, tokens)
            shard_sums.append(acc)
        merged = shard_sums[0] + shard_sums[1] + shard_sums[2]
        a = reestimate(xbar_implicit, whole)
        b = reestimate(xbar_implicit, merged)
        for ra, rb in zip(a.rules(), b.rules()):
            if ra.prob > 0 or rb.prob > 0:
                assert rb.prob == pytest.approx(ra.prob, rel=1e-9)

    def test_prune_zeroes_and_renormalizes(self, xbar_implicit):
        pruned, changed = prune(xbar_implicit, threshold=0.02)
        assert changed
        pruned.check_normalized(tol=1e-9)
        ne, ni = pruned.nonzero_counts()
        assert ni == 0 and ne == 27
        again, changed2 = prune(pruned, threshold=0.02)
        assert not changed2

    @pytest.mark.parametrize("threshold", [math.nan, 1.0, -0.1])
    def test_prune_rejects_threshold_outside_unit_interval(self, xbar_implicit, threshold):
        # NaN and 1 would zero every rule; a negative threshold means nothing
        with pytest.raises(ValueError, match="prune threshold"):
            prune(xbar_implicit, threshold)
        assert prune(xbar_implicit, 0.0) == (xbar_implicit, False)


class TestLogLikelihood:
    def test_single_sentence(self, xbar_cnf):
        assert corpus_logprobs(xbar_cnf, [FIVE_WORDS]) == [
            pytest.approx(math.log(0.0017971200000000004), rel=1e-12, abs=0)]

    def test_additivity(self, xbar_cnf):
        [one] = corpus_logprobs(xbar_cnf, [FIVE_WORDS])
        two = sum(corpus_logprobs(xbar_cnf, [FIVE_WORDS, FIVE_WORDS]))
        assert two == pytest.approx(2 * one, rel=1e-12, abs=0)

    def test_all_unparseable(self, xbar_cnf):
        corpus = [["chases", "chases"], ["so", "so"], ["the", "unicorn"]]
        assert corpus_logprobs(xbar_cnf, corpus) == [NEG_INF] * 3


class TestRuleSerialization:
    def test_round_trip(self, xbar_implicit, tmp_path):
        # a mother with 217 rules of 1/217 each would sum 1.1e-6 short of 1
        # if its probabilities were rounded to 8 decimals
        words = ["w%d" % i for i in range(217)]
        lexical = [LexRule("S", w, 1 / 217, "explicit") for w in words]
        wide = CnfGrammar(["S"], words, [], lexical, "S")
        for grammar in (xbar_implicit, wide):
            path = tmp_path / "g.rules"
            save_rules(grammar, path)
            loaded = load_rules(path, root=grammar.root)
            assert len(loaded.rules()) == len(grammar.rules())
            for a, b in zip(grammar.rules(), loaded.rules()):
                assert a.mother == b.mother and a.origin == b.origin
                assert b.prob == a.prob

    def test_trained_fixture_loads(self):
        g = parse_rules(fixtures.trained_rules_text(), root="V2")
        assert len(g.rules()) == 52
        ne, ni = g.nonzero_counts()
        assert (ne, ni) == (27, 25)
        for mother, total in g.mother_totals().items():
            assert abs(total - 1.0) <= 1e-6, mother

    def test_default_root_is_first_mother(self):
        g = parse_rules(fixtures.trained_rules_text())
        assert g.root == "V2"

    def test_bad_lines_rejected(self):
        from xpcfg.grammar import GrammarError

        with pytest.raises(GrammarError):
            parse_rules("S --> A B 0.5\n")  # missing origin
        with pytest.raises(GrammarError):
            parse_rules("S --> A B 1.5 explicit\n")
        with pytest.raises(GrammarError):
            parse_rules("")
        with pytest.raises(GrammarError, match="line 1"):
            parse_rules("S --> A A nan explicit\n")
        with pytest.raises(GrammarError, match="line 2"):
            parse_rules("A --> a # 1.0 explicit\nS --> A A abc explicit\n")
        with pytest.raises(GrammarError, match="line 2"):
            parse_rules("S --> A A 1.0 explicit\nS --> A A 1.0 explicit\nA --> a # 1.0 explicit\n")
        with pytest.raises(GrammarError, match="line 3"):
            parse_rules("S --> A A 1.0 explicit\nA --> a # 0.5 explicit\nA --> a # 0.5 explicit\n")
        # each mother's probabilities must sum to 1; the error names the
        # mother and the line of its first rule
        with pytest.raises(GrammarError, match=r"line 2: probabilities of A sum to 0\.7,"):
            parse_rules("S --> A A 1.0 explicit\nA --> a # 0.5 explicit\nA --> b # 0.2 explicit\n")
        with pytest.raises(GrammarError, match="line 1: probabilities of S"):
            parse_rules("S --> A A 0.999 explicit\nA --> a # 1.0 explicit\n")
        # within 1e-6 is accepted, and so is a mother whose rules are all zero
        parse_rules("S --> A A 0.9999999 explicit\nA --> a # 1.0 explicit\nB --> a # 0.0 explicit\n")

    def test_trained_fixture_parses_14_words(self, sentence14):
        g = parse_rules(fixtures.trained_rules_text(), root="V2")
        chart = cyk_fill(g, sentence14)
        assert chart.sentence_prob() > 0
        n = count_parses(chart)
        assert n == count_parses(cyk_fill(g, sentence14))  # deterministic
