"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); assertions carry the measured values so failures are self-describing.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from bruteforce import enumerate_derivations, expected_usage, random_cnf_grammar, \
    random_sentence
from xpcfg import fixtures
from xpcfg.chart import count_parses, cyk_fill, parse_report, unconstrained_count, \
    viterbi_parse
from xpcfg.constraints import build_implicit_grammar
from xpcfg.generate import GenConfig, ergodic_grammar, parse_corpus, sample_corpus, \
    sample_palindromes
from xpcfg.grammar import Grammar, compile_cnf
from xpcfg.metrics import entropy
from xpcfg.scoring import BracketSet, evaluate_corpus, format_corpus_score, geig_score
from xpcfg.training import TrainConfig, expected_counts, parse_rules, reestimate, train


def _verdict(tag, ok, detail):
    print("ACCEPTANCE %-3s %s - %s" % (tag, "PASS" if ok else "FAIL", detail))
    return ok


def _uniform_probabilities(g):
    """The grammar with all probability annotations removed, so compilation
    fills each mother's rules uniformly; training starts are biased toward
    explicit rules only through the implicit floor."""
    return Grammar(
        features=g.features,
        aliases=g.aliases,
        ps_rules=[replace(r, prob=None) for r in g.ps_rules],
        words=[replace(w, prob=None) for w in g.words],
        constraints=g.constraints,
    )


def test_criterion_1_implicit_rule_count(xbar, xbar_cnf, xbar_implicit_rules):
    implicit = xbar_implicit_rules
    grammar = build_implicit_grammar(xbar_cnf, implicit, floor=0.01)
    ne, ni = grammar.nonzero_counts()
    ok = len(implicit) == 99 and ne + ni == 126 and ne == 27
    assert _verdict("1", ok,
                    "implicit rules: %d (want 99); total %d (want 126); explicit %d "
                    "(want 27)" % (len(implicit), ne + ni, ne))


def test_criterion_2_unconstrained_counts():
    twenty = unconstrained_count(20, 10)
    thirty = unconstrained_count(30, 10)
    ok = (twenty == 17672631900000000000000000000
          and thirty == 100224221665136800000000000000000000000000000)
    assert _verdict("2", ok, "count(20,10)=%d, count(30,10)=%d" % (twenty, thirty))


def test_criterion_3_pretraining_ambiguity(xbar_cnf, xbar_implicit, sentence14):
    # The paper reports 3.0e5-4.6e5 derivations for its own 126-rule grammar,
    # which is not bundled; the bundled inventory is checked against the
    # exhaustive oracle, and the paper's band is printed for reference.
    chart = cyk_fill(xbar_implicit, sentence14)
    n = count_parses(chart)
    again = count_parses(cyk_fill(xbar_implicit, sentence14))
    derivs = enumerate_derivations(xbar_implicit, sentence14)
    oracle_n, oracle_prob = len(derivs), sum(p for p, _, _ in derivs)
    explicit = count_parses(cyk_fill(xbar_cnf, sentence14))
    ok = (n == again == oracle_n == 18_978
          and math.isclose(chart.sentence_prob(), oracle_prob, rel_tol=1e-12)
          and explicit == 0)
    assert _verdict("3", ok,
                    "14-word sentence has %d derivations under the 126-rule grammar "
                    "(oracle %d, P %.6e vs oracle %.6e), %d under the 27 explicit "
                    "rules; paper's grammar: band [3.0e5, 4.6e5]"
                    % (n, oracle_n, chart.sentence_prob(), oracle_prob, explicit))


def test_criterion_4_trained_fixture_consistency(xbar_implicit, sentence14):
    grammar = parse_rules(fixtures.trained_rules_text(), root="V2")

    worst = max(abs(t - 1.0) for t in grammar.mother_totals().values())
    ok_a = worst <= 1e-6
    _verdict("4a", ok_a, "max |mother total - 1| = %.2e (tol 1e-6)" % worst)

    # Training only reweights and prunes the 126 rules, so the fixture's
    # derivations are a subset of criterion 3's.  The paper's 75 is for its own
    # trained grammar and is printed for reference.
    def key(r):
        return (r.mother, getattr(r, "left", None), getattr(r, "right", None),
                getattr(r, "word", None), r.origin)

    start_rules = {key(r) for r in xbar_implicit.rules() if r.prob > 0.0}
    outside = [r for r in grammar.rules() if key(r) not in start_rules]
    n = count_parses(cyk_fill(grammar, sentence14))
    oracle_n = len(enumerate_derivations(grammar, sentence14))
    start_n = count_parses(cyk_fill(xbar_implicit, sentence14))
    ok_b = not outside and n == oracle_n and 0 < n <= start_n
    _verdict("4b", ok_b, "14-word sentence has %d derivations under the trained "
             "fixture (oracle %d, <= %d before training); %d fixture rules outside "
             "the 126-rule grammar; paper's trained grammar: 75"
             % (n, oracle_n, start_n, len(outside)))

    ratio = 5.809595e-33 / 1.064649e-30
    ok_c = abs(ratio - 0.005457) <= 1e-6
    reports = [parse_report(grammar, s) for s in
               [sentence14,
                "the cat chases the ball".split(),
                "slowly with the sheep the boy chases the ball".split()]]
    for rep in reports:
        ok_c = ok_c and rep.best_log <= rep.all_log + 1e-12
        ok_c = ok_c and abs(rep.likelihood - math.exp(rep.best_log - rep.all_log)) \
            <= 1e-9 * rep.likelihood
    _verdict("4c", ok_c, "reference triple ratio %.6f; likelihood = best/all on %d "
             "parse reports" % (ratio, len(reports)))

    assert ok_a and ok_b and ok_c, \
        "fixture consistency: a=%s b=%s c=%s" % (ok_a, ok_b, ok_c)


def test_criterion_5_experiment_one(xbar, xbar_cnf, xbar_implicit_rules):
    corpus = sample_corpus(xbar_cnf, GenConfig(count=500, seed=42))
    start = build_implicit_grammar(
        compile_cnf(_uniform_probabilities(xbar), root="V2"),
        xbar_implicit_rules, floor=0.01)

    config = TrainConfig(max_iterations=10, convergence_tol=1e-4, prune_threshold=1e-5)
    report500 = train(start, corpus, config)
    ok_a = report500.converged and report500.iterations <= 10
    _verdict("5a", ok_a, "500-sentence training converged=%s in %d iterations "
             "(cap 10)" % (report500.converged, report500.iterations))

    scored = entropy(report500.grammar, corpus)
    ok_b = abs(scored.h3a - 1.5922) <= 0.05 and abs(scored.h3b - 1.5690) <= 0.05
    _verdict("5b", ok_b, "trained H3a=%.4f (want 1.5922±0.05), H3b=%.4f "
             "(want 1.5690±0.05)" % (scored.h3a, scored.h3b))

    corpus528 = corpus + parse_corpus(fixtures.supplementary_text())
    assert len(corpus528) == 528
    report528 = train(start, corpus528, config)
    initial = entropy(start, corpus528)
    trained = entropy(report528.grammar, corpus528)
    gap = initial.h3a - trained.h3a
    ok_c = gap >= 0.3
    _verdict("5c", ok_c, "528-corpus entropy: initial %.4f, trained %.4f, gap %.4f "
             "(want >= 0.3)" % (initial.h3a, trained.h3a, gap))

    ne, ni = report528.grammar.nonzero_counts()
    ok_d = 42 <= ne + ni <= 62
    _verdict("5d", ok_d, "nonzero rules after 528-sentence retraining: %d "
             "(%d explicit + %d implicit; band [42, 62])" % (ne + ni, ne, ni))

    assert ok_a and ok_b and ok_c and ok_d, \
        "experiment replication: a=%s b=%s c=%s d=%s" % (ok_a, ok_b, ok_c, ok_d)


def test_criterion_6_palindrome_replication():
    corpus = sample_palindromes(200, seed=11)
    start = ergodic_grammar(["S", "X", "Y", "A", "B"], ["a", "b"], root="S", seed=111)
    assert len(start.rules()) == 135

    report = train(start, corpus,
                   TrainConfig(max_iterations=100, convergence_tol=1e-4,
                               prune_threshold=1e-5))
    ok_stable = report.converged and report.iterations <= 100
    scored = entropy(report.grammar, corpus)
    ok_h = abs(scored.h3a - 0.6916) <= 0.15 and abs(scored.h3b - 0.7504) <= 0.15
    ok = ok_stable and ok_h
    assert _verdict("6", ok,
                    "135-parameter start stabilised=%s in %d iterations; trained "
                    "H3a=%.4f (want 0.6916±0.15), H3b=%.4f (want 0.7504±0.15)"
                    % (report.converged, report.iterations, scored.h3a, scored.h3b))


def test_criterion_7_oracle_equivalence():
    rng = random.Random(20240)
    cases = parseable = 0
    while cases < 520:
        g = random_cnf_grammar(rng)
        for _ in range(8):
            tokens = random_sentence(rng, g, max_len=7)
            chart = cyk_fill(g, tokens)
            n = count_parses(chart)
            if n > 20_000:
                continue  # keep the exhaustive oracle tractable
            derivs = enumerate_derivations(g, tokens)
            assert n == len(derivs), "count mismatch: %d vs %d" % (n, len(derivs))
            cases += 1
            if not derivs:
                assert chart.sentence_prob() == 0.0
                continue
            parseable += 1
            total = sum(p for p, _, _ in derivs)
            best = max(p for p, _, _ in derivs)
            assert chart.sentence_prob() == pytest.approx(total, rel=1e-12, abs=0)
            _, vit = viterbi_parse(chart, g)
            assert vit == pytest.approx(best, rel=1e-12, abs=0)
            oracle = expected_usage(derivs, len(g.rules()))
            counts = expected_counts(g, tokens, chart)
            np.testing.assert_allclose(counts, oracle, rtol=1e-9, atol=1e-15)
    assert _verdict("7", parseable >= 250,
                    "%d randomized cases checked against the exhaustive oracle "
                    "(%d parseable)" % (cases, parseable))


def test_criterion_8_em_properties(xbar_cnf, xbar_implicit):
    corpus = sample_corpus(xbar_cnf, GenConfig(count=80, seed=17))

    # manual EM loop so per-iteration invariants are visible
    current = xbar_implicit
    lls = []
    ok_norm = True
    for _ in range(6):
        counts = np.zeros(len(current.rules()))
        ll = 0.0
        for tokens in corpus:
            chart = cyk_fill(current, tokens)
            ll += chart.sentence_logprob()
            counts += expected_counts(current, tokens, chart)
        lls.append(ll)
        current = reestimate(current, counts)
        try:
            current.check_normalized(tol=1e-9)
        except Exception:
            ok_norm = False
    ok_mono = all(lls[i] >= lls[i - 1] - 1e-9 * abs(lls[i - 1])
                  for i in range(1, len(lls)))

    # shard-parallel expected counts equal the sequential accumulation
    seq = np.zeros(len(xbar_implicit.rules()))
    for tokens in corpus:
        seq += expected_counts(xbar_implicit, tokens)
    shards = [corpus[i::4] for i in range(4)]
    merged = np.zeros(len(xbar_implicit.rules()))
    for shard in shards:
        acc = np.zeros(len(xbar_implicit.rules()))
        for tokens in shard:
            acc += expected_counts(xbar_implicit, tokens)
        merged += acc
    a = reestimate(xbar_implicit, seq)
    b = reestimate(xbar_implicit, merged)
    ok_shard = all(
        rb.prob == pytest.approx(ra.prob, rel=1e-9, abs=1e-300)
        for ra, rb in zip(a.rules(), b.rules()))

    ok = ok_mono and ok_norm and ok_shard
    assert _verdict("8", ok,
                    "monotone log-likelihood=%s; per-iteration normalisation=%s; "
                    "shard merge equals sequential=%s" % (ok_mono, ok_norm, ok_shard))


def test_criterion_9_bracket_scoring(xbar_cnf):
    identity = geig_score(BracketSet(frozenset({(0, 2), (0, 3)}), 3),
                          BracketSet(frozenset({(0, 2), (0, 3)}), 3))
    ok_id = (identity.recall, identity.precision, identity.crossings) == (100.0, 100.0, 0)

    rng = random.Random(31)
    ok_dual = True
    for _ in range(1000):
        n = rng.randint(2, 12)

        def rand_set():
            spans = set()
            for _ in range(rng.randint(0, 6)):
                i = rng.randint(0, n - 2)
                spans.add((i, rng.randint(i + 2, n)))
            return BracketSet(frozenset(spans), n)

        a, b = rand_set(), rand_set()
        ok_dual = ok_dual and geig_score(a, b).recall == geig_score(b, a).precision

    crossing = geig_score(BracketSet(frozenset({(0, 2), (0, 3)}), 3),
                          BracketSet(frozenset({(1, 3), (0, 3)}), 3))
    ok_cross = (round(crossing.recall), round(crossing.precision),
                crossing.crossings) == (50, 50, 1)

    corpus = sample_corpus(xbar_cnf, GenConfig(count=30, seed=23))
    golds = [viterbi_parse(cyk_fill(xbar_cnf, s), xbar_cnf)[0] for s in corpus]
    self_eval = evaluate_corpus(xbar_cnf, golds)
    ok_self = (self_eval.recall == 100.0 and self_eval.precision == 100.0
               and self_eval.total_crossings == 0
               and self_eval.parsed_pct == 100.0
               and "Sentences Parsed" in format_corpus_score(self_eval))

    ok = ok_id and ok_dual and ok_cross and ok_self
    assert _verdict("9", ok,
                    "identity=%s duality=%s crossing-fixture=%s self-evaluation=%s"
                    % (ok_id, ok_dual, ok_cross, ok_self))
