import random

import pytest

from xpcfg.chart import NoParseError, ParseError, cyk_fill, format_tree, viterbi_parse
from xpcfg.generate import GenConfig, sample_corpus
from xpcfg.grammar import GrammarError
from xpcfg.scoring import (
    BracketSet,
    brackets_of,
    evaluate_corpus,
    format_corpus_score,
    geig_score,
    parse_tree_text,
    read_gold_trees,
    spans_cross,
)


def bs(spans, length):
    return BracketSet(frozenset(spans), length)


def per_sentence_scores(grammar, golds):
    """Each gold tree's score from its own inside chart and Viterbi parse;
    None where the yield has no parse or a token outside the vocabulary."""
    scores = []
    for gold in golds:
        try:
            cand, _ = viterbi_parse(cyk_fill(grammar, gold.tokens()), grammar)
        except (ParseError, NoParseError):
            scores.append(None)
            continue
        scores.append(geig_score(brackets_of(cand), brackets_of(gold)))
    return scores


class TestBrackets:
    def test_left_branching_three_words(self):
        tree = parse_tree_text("(S (X a b) c)")
        assert brackets_of(tree).spans == {(0, 2), (0, 3)}

    def test_single_word_tree(self):
        tree = parse_tree_text("(N0 cat)")
        assert brackets_of(tree).spans == frozenset()
        assert brackets_of(tree).length == 1

    def test_cnf_tree_span_count(self, xbar_cnf):
        tokens = "the cat chases the ball".split()
        tree, _ = viterbi_parse(cyk_fill(xbar_cnf, tokens), xbar_cnf)
        spans = brackets_of(tree)
        assert spans.length == 5
        assert len(spans.spans) <= 4  # n-1 internal binary nodes at most
        assert (0, 5) in spans.spans

    def test_duplicate_spans_collapse(self):
        tree = parse_tree_text("(S (X (Y a b)))")
        assert brackets_of(tree).spans == {(0, 2)}

    def test_tree_text_errors(self):
        with pytest.raises(GrammarError):
            parse_tree_text("(S a b")
        with pytest.raises(GrammarError):
            parse_tree_text("S a b)")
        with pytest.raises(GrammarError):
            parse_tree_text("(S)")
        with pytest.raises(GrammarError):
            parse_tree_text("")

    def test_deep_tree(self):
        # right-branching chain (S a (S a ... (S a b))), far deeper than the
        # interpreter's recursion limit
        depth = 5000
        text = "(S a " * depth + "b" + ")" * depth
        tree = parse_tree_text(text)
        assert tree.tokens() == ["a"] * depth + ["b"]
        brackets = brackets_of(tree)
        assert brackets.length == depth + 1
        assert brackets.spans == {(i, depth + 1) for i in range(depth)}
        assert repr(tree) == format_tree(tree, "paren") == text
        assert format_tree(tree, "appendix3") == "[S a " * depth + "b" + " S]" * depth

    def test_read_gold_trees(self):
        trees = read_gold_trees("(S a b)\n\n(S (X a) b)\n")
        assert len(trees) == 2
        assert trees[1].tokens() == ["a", "b"]


class TestGeigScore:
    def test_identity(self):
        a = bs({(0, 2), (0, 3)}, 3)
        s = geig_score(a, a)
        assert (s.recall, s.precision, s.crossings) == (100.0, 100.0, 0)

    def test_three_word_crossing_case(self):
        cand = bs({(0, 2), (0, 3)}, 3)
        gold = bs({(1, 3), (0, 3)}, 3)
        s = geig_score(cand, gold)
        assert s.recall == pytest.approx(50.0)
        assert s.precision == pytest.approx(50.0)
        assert s.crossings == 1

    def test_candidate_subset_of_gold(self):
        cand = bs({(0, 3)}, 3)
        gold = bs({(0, 2), (0, 3)}, 3)
        s = geig_score(cand, gold)
        assert s.precision == 100.0
        assert s.recall < 100.0
        assert s.crossings == 0

    def test_empty_sets_score_hundred(self):
        s = geig_score(bs(set(), 2), bs(set(), 2))
        assert (s.recall, s.precision, s.crossings) == (100.0, 100.0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            geig_score(bs({(0, 2)}, 2), bs({(0, 2)}, 3))

    def test_duality_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(2, 12)
            def rand_set():
                spans = set()
                for _ in range(rng.randint(0, 6)):
                    i = rng.randint(0, n - 2)
                    k = rng.randint(i + 2, n)
                    spans.add((i, k))
                return bs(spans, n)
            a, b = rand_set(), rand_set()
            assert geig_score(a, b).recall == geig_score(b, a).precision
            assert geig_score(a, b).precision == geig_score(b, a).recall

    def test_crossing_relation_symmetric(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(2, 10)
            i1 = rng.randint(0, n - 2); k1 = rng.randint(i1 + 2, n)
            i2 = rng.randint(0, n - 2); k2 = rng.randint(i2 + 2, n)
            assert spans_cross((i1, k1), (i2, k2)) == spans_cross((i2, k2), (i1, k1))

    def test_full_span_bracket_changes_nothing_structural(self):
        cand = bs({(0, 2)}, 4)
        gold = bs({(1, 3)}, 4)
        before = geig_score(cand, gold)
        after = geig_score(bs(cand.spans | {(0, 4)}, 4), bs(gold.spans | {(0, 4)}, 4))
        assert after.crossings == before.crossings
        assert after.matched == before.matched + 1

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            bs({(0, 1)}, 3)
        with pytest.raises(ValueError):
            bs({(2, 5)}, 3)


class TestEvaluateCorpus:
    def test_self_evaluation_is_perfect(self, xbar_cnf):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=25, seed=12))
        golds = [viterbi_parse(cyk_fill(xbar_cnf, s), xbar_cnf)[0] for s in corpus]
        score = evaluate_corpus(xbar_cnf, golds)
        assert score.sentences_parsed == 25
        assert score.parsed_pct == 100.0
        assert score.recall == 100.0
        assert score.precision == 100.0
        assert score.total_crossings == 0

    def test_hand_built_three_sentence_fixture(self, xbar_cnf):
        # gold analyses flatter than the parser's own, scored by hand
        golds = [
            parse_tree_text("(S (N the cat) (V chases (N the ball)))"),
            parse_tree_text("(S the cat (V chases (N the ball)))"),
            parse_tree_text("(S (X chases) (Y chases))"),  # unparseable yield
        ]
        score = evaluate_corpus(xbar_cnf, golds)
        assert score.sentences_total == 3
        assert score.sentences_parsed == 2
        # candidate brackets per parsed sentence: (0,2),(2,5),(3,5),(0,5)
        assert score.candidate_count == 8
        # gold: sentence 1 -> (0,2),(2,5),(3,5),(0,5); sentence 2 -> (2,5),(3,5),(0,5)
        assert score.gold_count == 4 + 3
        assert score.matched == 7
        assert score.recall == pytest.approx(100.0)
        assert score.precision == pytest.approx(100.0 * 7 / 8)
        assert score.total_crossings == 0
        assert score.avg_sentence_length == pytest.approx(5.0)

    def test_empty_gold_set_rejected(self, xbar_cnf):
        with pytest.raises(ValueError, match="empty gold set"):
            evaluate_corpus(xbar_cnf, [])

    def test_crossings_counted(self, xbar_cnf):
        gold = parse_tree_text("(S the (X cat chases) the ball)")
        score = evaluate_corpus(xbar_cnf, [gold])
        # parser brackets (0,2) and (2,5) both cross the gold (1,3)
        assert score.total_crossings == 2
        assert score.avg_crossings == pytest.approx(2.0)
        assert 0 <= score.avg_crossings <= score.candidate_count / score.sentences_parsed

    def test_format(self, xbar_cnf):
        corpus = sample_corpus(xbar_cnf, GenConfig(count=5, seed=14))
        golds = [viterbi_parse(cyk_fill(xbar_cnf, s), xbar_cnf)[0] for s in corpus]
        text = format_corpus_score(evaluate_corpus(xbar_cnf, golds))
        assert "Sentences Parsed (No. / %)" in text
        assert "Total Recall (%)" in text
        assert "Average Crossings" in text

    @pytest.mark.parametrize("grammar", ["xbar_cnf", "xbar_implicit"])
    def test_batched_matches_per_sentence(self, request, xbar_cnf, grammar):
        # gold trees of mixed lengths, the explicit grammar's parses and
        # right-branching trees in turn, with a repeated yield, plus a yield
        # with no parse and one with a token outside the vocabulary, in an
        # order that mixes them
        grammar = request.getfixturevalue(grammar)
        corpus = sample_corpus(xbar_cnf, GenConfig(count=30, seed=21, max_length=12))
        golds = [viterbi_parse(cyk_fill(xbar_cnf, s), xbar_cnf)[0] if i % 2 else
                 parse_tree_text("".join("(S %s " % w for w in s[:-1]) + s[-1] + ")" * (len(s) - 1))
                 for i, s in enumerate(corpus)]
        golds[7:7] = [golds[2], parse_tree_text("(S (X chases) (Y chases))"),
                      parse_tree_text("(S (N the dog) (V chases))"), golds[2]]
        golds.append(golds[8])
        assert len({len(g.tokens()) for g in golds}) > 3
        expected = per_sentence_scores(grammar, golds)
        assert expected[8] is None and expected[9] is None
        assert len({(s.recall, s.precision, s.crossings) for s in expected if s}) > 3
        score = evaluate_corpus(grammar, golds)
        assert score.per_sentence == expected
        parsed = [s for s in expected if s is not None]
        lengths = [len(g.tokens()) for g, s in zip(golds, expected) if s is not None]
        matched = sum(s.matched for s in parsed)
        candidates = sum(s.candidate_count for s in parsed)
        gold_count = sum(s.gold_count for s in parsed)
        crossings = sum(s.crossings for s in parsed)
        assert (score.sentences_total, score.sentences_parsed) == (len(golds), len(parsed))
        assert (score.matched, score.candidate_count, score.gold_count) == (matched, candidates,
                                                                            gold_count)
        assert score.recall == 100.0 * matched / gold_count
        assert score.precision == 100.0 * matched / candidates
        assert score.total_crossings == crossings
        assert score.avg_crossings == crossings / len(parsed)
        assert score.avg_sentence_length == sum(lengths) / len(parsed)
