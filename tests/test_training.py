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

    def test_unparseable_sentences_skipped_and_counted(self, xbar_cnf):
        corpus = [FIVE_WORDS, ["chases", "chases"], ["the", "unicorn"]]
        report = train(xbar_cnf, corpus, TrainConfig(max_iterations=1))
        assert report.skipped == 2
        assert report.coverage_before == pytest.approx(1 / 3)

    def test_skip_unparseable_false_rejects(self, xbar_cnf):
        with pytest.raises(NoParseError):
            train(xbar_cnf, [FIVE_WORDS, ["chases", "chases"]],
                  TrainConfig(max_iterations=1, skip_unparseable=False))

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
        path = tmp_path / "g.rules"
        save_rules(xbar_implicit, path)
        loaded = load_rules(path, root="V2")
        assert len(loaded.rules()) == len(xbar_implicit.rules())
        for a, b in zip(xbar_implicit.rules(), loaded.rules()):
            assert a.mother == b.mother and a.origin == b.origin
            assert b.prob == pytest.approx(a.prob, abs=5e-9)

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

    def test_trained_fixture_parses_14_words(self, sentence14):
        g = parse_rules(fixtures.trained_rules_text(), root="V2")
        chart = cyk_fill(g, sentence14)
        assert chart.sentence_prob() > 0
        n = count_parses(chart)
        assert n == count_parses(cyk_fill(g, sentence14))  # deterministic
