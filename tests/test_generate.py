import statistics
import sys

import pytest

from xpcfg.chart import cyk_fill
from xpcfg.generate import (
    GenConfig,
    GenerationError,
    corpus_to_text,
    ergodic_grammar,
    palindrome_grammar,
    parse_corpus,
    sample_corpus,
    sample_palindromes,
)
from xpcfg.grammar import BinaryRule, CnfGrammar, LexRule


class TestSampleCorpus:
    def test_everything_parseable_by_source(self, xbar_cnf):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=500, seed=42))
        assert len(corpus) == 500
        for tokens in corpus:
            assert cyk_fill(xbar_cnf, tokens).sentence_prob() > 0.0

    def test_deterministic(self, xbar_cnf):
        a = sample_corpus(xbar_cnf, GenConfig(count=50, seed=7))
        b = sample_corpus(xbar_cnf, GenConfig(count=50, seed=7))
        assert corpus_to_text(a) == corpus_to_text(b)
        c = sample_corpus(xbar_cnf, GenConfig(count=50, seed=8))
        assert corpus_to_text(a) != corpus_to_text(c)

    def test_word_choice_frequencies(self, xbar_cnf):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=5000, seed=3))
        words = [w for s in corpus for w in s]
        chases = words.count("chases")
        kisses = words.count("kisses")
        assert chases + kisses == 5000  # exactly one verb per sentence
        assert abs(chases / 5000 - 0.65) <= 0.03

    def test_rule_usage_chi_square(self, xbar_cnf):
        # word choices are the preterminal rules; a goodness-of-fit check per
        # mother against the declared conditional probabilities
        corpus = sample_corpus(xbar_cnf, GenConfig(count=5000, seed=3))
        counts = {}
        for s in corpus:
            for w in s:
                counts[w] = counts.get(w, 0) + 1
        by_mother = {}
        for r in xbar_cnf.lexical:
            by_mother.setdefault(r.mother, []).append(r)
        stat = 0.0
        df = 0
        for mother, rules in by_mother.items():
            total = sum(counts.get(r.word, 0) for r in rules)
            mass = sum(r.prob for r in rules)
            for r in rules:
                exp = total * r.prob / mass
                obs = counts.get(r.word, 0)
                stat += (obs - exp) ** 2 / exp
            df += len(rules) - 1
        assert df == 14
        assert stat < 36.12  # chi-square 0.999 quantile at 14 degrees of freedom

    def test_nonterminating_grammar(self):
        g = CnfGrammar(["S"], ["w"],
                       [BinaryRule("S", "S", "S", 0.999)],
                       [LexRule("S", "w", 0.001)],
                       root="S")
        with pytest.raises(GenerationError):
            sample_corpus(g, GenConfig(count=5, seed=0, max_depth=4, max_length=4))

    def test_seeded_corpus_is_pinned(self, xbar_cnf):
        # the acceptance and benchmark corpora are drawn from these seeds
        assert [" ".join(s) for s in sample_corpus(xbar_cnf, GenConfig(count=3, seed=42))] == [
            "the bird kisses a cat with the ball",
            "a boy kisses the bird",
            "the cat chases a sheep with that ball in the cat",
        ]
        assert [" ".join(s) for s in sample_palindromes(6, seed=11)] == [
            "b b a a a a b b", "a a a a", "b a b a a b a b", "b b", "b a b b a b", "a b b a",
        ]

    def test_derivations_deeper_than_recursion_limit(self):
        chain = CnfGrammar(["S", "A"], ["a"],
                           [BinaryRule("S", "A", "S", 0.999), BinaryRule("S", "A", "A", 0.001)],
                           [LexRule("A", "a", 1.0)], root="S")
        caps = GenConfig(count=3, seed=1, max_depth=5000, max_length=5000)
        corpus = sample_corpus(chain, caps)
        assert [len(s) for s in corpus] == [1791, 1506, 2]
        assert max(map(len, corpus)) > sys.getrecursionlimit()
        # rejected draws of this grammar run deeper than the recursion limit
        ergodic = ergodic_grammar(["S", "X"], ["a"], seed=0)
        assert len(sample_corpus(ergodic, GenConfig(count=5, seed=0, max_depth=5000,
                                                    max_length=5000))) == 5

    def test_caps_validated(self, xbar_cnf):
        with pytest.raises(ValueError):
            sample_corpus(xbar_cnf, GenConfig(count=0, seed=0))
        with pytest.raises(ValueError):
            sample_corpus(xbar_cnf, GenConfig(count=1, seed=0, max_depth=0))
        for field in ("count", "max_depth", "max_length"):
            with pytest.raises(ValueError):
                sample_corpus(xbar_cnf, GenConfig(seed=0, **{field: float("nan")}))


class TestPalindromes:
    def test_grammar_shape(self):
        g = palindrome_grammar()
        assert len(g.nonterminals) == 5
        assert len(g.terminals) == 2
        assert len(g.rules()) == 8
        g.check_normalized(tol=1e-12)

    def test_outputs_are_even_palindromes(self):
        corpus = sample_palindromes(200, seed=5)
        assert len(corpus) == 200
        for s in corpus:
            assert s == s[::-1]
            assert len(s) >= 2 and len(s) % 2 == 0

    def test_sound_under_source_grammar(self):
        g = palindrome_grammar()
        for s in sample_palindromes(50, seed=9):
            assert cyk_fill(g, s).sentence_prob() > 0.0

    def test_mean_length_stable_across_seeds(self):
        means = []
        for seed in range(10):
            corpus = sample_palindromes(1000, seed=seed)
            means.append(sum(map(len, corpus)) / len(corpus))
        center = statistics.mean(means)
        assert center > 0
        assert (max(means) - min(means)) / center < 0.20

    def test_deterministic(self):
        a = sample_palindromes(30, seed=4)
        b = sample_palindromes(30, seed=4)
        assert a == b


class TestErgodicGrammar:
    def test_all_parameters_nonzero(self):
        g = ergodic_grammar(["S", "X", "Y", "A", "B"], ["a", "b"], root="S", seed=0)
        assert len(g.binary) == 125
        assert len(g.lexical) == 10
        assert all(r.prob > 0 for r in g.rules())
        g.check_normalized(tol=1e-9)

    def test_seeded(self):
        a = ergodic_grammar(["S", "X"], ["a"], seed=1)
        b = ergodic_grammar(["S", "X"], ["a"], seed=1)
        c = ergodic_grammar(["S", "X"], ["a"], seed=2)
        assert [r.prob for r in a.rules()] == [r.prob for r in b.rules()]
        assert [r.prob for r in a.rules()] != [r.prob for r in c.rules()]


class TestCorpusFiles:
    def test_round_trip(self, xbar_cnf):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=20, seed=1))
        assert parse_corpus(corpus_to_text(corpus)) == corpus

    def test_blank_lines_ignored(self):
        assert parse_corpus("a b\n\n  \nc d\n") == [["a", "b"], ["c", "d"]]
