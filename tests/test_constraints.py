import pytest

from xpcfg.constraints import (
    RuleCandidate,
    build_implicit_grammar,
    enumerate_implicit,
    parse_constraint,
    satisfies,
)
from xpcfg.grammar import (
    EQ,
    NEQ,
    PRESENT,
    Category,
    EqBarLevel,
    EqConst,
    EqSlots,
    FeatureDecl,
    Grammar,
    GrammarError,
)

# the implicit rules that survive training in the bundled trained fixture;
# all of them must be licensed by the constraint set
TRAINED_IMPLICIT = [
    ("V2", "V2", "P1"), ("V2", "V2", "A1"), ("V2", "N0", "V1"), ("V2", "P1", "V2"),
    ("V2", "A1", "V2"), ("V2", "A0", "V2"),
    ("V1", "V1", "P1"), ("V1", "V0", "P1"), ("V1", "P1", "V1"), ("V1", "A1", "V1"),
    ("V1", "A0", "V1"),
    ("N1", "N1", "A1"), ("N1", "N0", "A1"), ("N1", "P1", "N1"), ("N1", "A1", "N1"),
    ("N1", "A0", "N1"),
    ("P1", "V1", "P1"), ("P1", "P1", "P1"), ("P1", "A0", "P1"),
    ("A1", "V1", "A1"), ("A1", "P1", "A1"), ("A1", "A1", "P1"), ("A1", "A1", "A1"),
    ("A1", "A0", "P1"), ("A1", "A0", "A1"),
]


def _constraint(xbar, name):
    return next(c for c in xbar.constraints if c.name == name)


class TestParseConstraint:
    def test_head_constraint_structure(self, xbar):
        head = _constraint(xbar, "HEAD1")
        mother, d1, d2 = head.pattern
        kinds = {(t.feature, t.kind, t.value) for t in mother.tests}
        assert kinds == {("N", PRESENT, None), ("V", PRESENT, None), ("BAR", NEQ, "0")}
        assert d1.is_empty() and d2.is_empty()
        assert any(isinstance(e, EqBarLevel) and e.deltas == (0, -1)
                   for e in head.equations)
        slot_eqs = [e for e in head.equations if isinstance(e, EqSlots)]
        assert {(e.feature, e.slot_a, e.slot_b) for e in slot_eqs} == {("N", 0, 1), ("V", 0, 1)}

    def test_preterminal_constraint_structure(self, xbar):
        pt = _constraint(xbar, "PT1")
        _, d1, d2 = pt.pattern
        assert {(t.feature, t.kind, t.value) for t in d1.tests} == {("BAR", EQ, "0")}
        assert {(t.feature, t.kind, t.value) for t in d2.tests} == {("BAR", EQ, "0")}
        assert pt.equations == (EqConst("N", 2, "+"),)
        assert pt.restricts_preterminal_introduction()

    def test_agreement_constraint(self):
        text = "CONSTRAINT AGR : [] --> [NUM, PER], [NUM, PER]; " \
               "NUM(1)=NUM(2), PER(1)=PER(2)."
        scope = Grammar(features=[FeatureDecl("NUM", ("Sg", "Pl")),
                                  FeatureDecl("PER", ("1", "2", "3"))])
        agr = parse_constraint(text, scope)
        assert agr.equations == (EqSlots("NUM", 1, 2), EqSlots("PER", 1, 2))
        assert not agr.restricts_preterminal_introduction()

    def test_undeclared_feature_rejected(self, xbar):
        with pytest.raises(GrammarError, match="undeclared feature"):
            parse_constraint("CONSTRAINT X : [CASE] --> [], []; CASE(0)=CASE(1).", xbar)


class TestSatisfies:
    def cats(self, xbar_cnf):
        return xbar_cnf.categories

    def test_head_in_second_position(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert satisfies(RuleCandidate("V1", "A1", "V1"), head, xbar_cnf.categories)

    def test_head_in_first_position(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert satisfies(RuleCandidate("V2", "V2", "P1"), head, xbar_cnf.categories)

    def test_no_head_rejected(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert not satisfies(RuleCandidate("N1", "V1", "P1"), head, xbar_cnf.categories)

    def test_head_one_level_below(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert satisfies(RuleCandidate("V2", "N0", "V1"), head, xbar_cnf.categories)

    def test_head_above_mother_rejected(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert not satisfies(RuleCandidate("V1", "V2", "N1"), head, xbar_cnf.categories)

    def test_nonapplicable_mother_not_blocking(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert satisfies(RuleCandidate("DT", "V1", "P1"), head, xbar_cnf.categories)

    def test_preterminal_pair_needs_nominal_second(self, xbar, xbar_cnf):
        pt = _constraint(xbar, "PT1")
        assert not satisfies(RuleCandidate("V1", "V0", "P0"), pt, xbar_cnf.categories)
        assert satisfies(RuleCandidate("V1", "V0", "N0"), pt, xbar_cnf.categories)

    def test_preterminal_constraint_ignores_phrases(self, xbar, xbar_cnf):
        pt = _constraint(xbar, "PT1")
        assert satisfies(RuleCandidate("V1", "V0", "P1"), pt, xbar_cnf.categories)

    def test_blocked_examples(self, xbar, xbar_cnf):
        head = _constraint(xbar, "HEAD1")
        assert not satisfies(RuleCandidate("V2", "A0", "A1"), head, xbar_cnf.categories)
        assert not satisfies(RuleCandidate("A1", "V2", "N1"), head, xbar_cnf.categories)

    def test_agreement_blocks_value_clash(self):
        scope = Grammar(features=[FeatureDecl("NUM", ("Sg", "Pl"))])
        agr = parse_constraint("CONSTRAINT AGR : [] --> [NUM], [NUM]; NUM(1)=NUM(2).",
                               scope)
        cats = {
            "M": Category({}),
            "Xsg": Category({"NUM": "Sg"}),
            "Xpl": Category({"NUM": "Pl"}),
        }
        assert satisfies(RuleCandidate("M", "Xsg", "Xsg"), agr, cats)
        assert not satisfies(RuleCandidate("M", "Xsg", "Xpl"), agr, cats)
        # a daughter without NUM is outside the pattern, hence not blocked
        assert satisfies(RuleCandidate("M", "M", "Xpl"), agr, cats)


class TestEnumerateImplicit:
    def test_exactly_99_implicit_rules(self, xbar_implicit_rules):
        assert len(xbar_implicit_rules) == 99

    def test_per_mother_breakdown(self, xbar_implicit_rules):
        by_mother = {}
        for c in xbar_implicit_rules:
            by_mother[c.mother] = by_mother.get(c.mother, 0) + 1
        assert by_mother == {"V2": 27, "V1": 17, "N1": 18, "P1": 18, "A1": 19}

    def test_trained_survivors_all_licensed(self, xbar_implicit_rules):
        licensed = {(c.mother, c.d1, c.d2) for c in xbar_implicit_rules}
        missing = [r for r in TRAINED_IMPLICIT if r not in licensed]
        assert missing == []

    def test_known_members_and_nonmembers(self, xbar_implicit_rules):
        licensed = {(c.mother, c.d1, c.d2) for c in xbar_implicit_rules}
        assert ("V2", "A1", "V2") in licensed
        assert ("V1", "V0", "V1") in licensed
        assert ("V1", "V1", "V2") in licensed
        assert ("N1", "N0", "N1") in licensed
        assert ("V2", "A0", "A1") not in licensed
        assert ("A1", "V2", "N1") not in licensed
        # explicit rules never reappear as implicit candidates
        assert ("V2", "N1", "V1") not in licensed

    def test_deterministic_lexicographic_order(self, xbar, xbar_cnf, xbar_implicit_rules):
        again = enumerate_implicit(xbar_cnf, xbar.constraints)
        assert again == xbar_implicit_rules
        keys = [(c.mother, c.d1, c.d2) for c in xbar_implicit_rules]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_empty_constraint_set_licenses_everything(self, xbar_cnf):
        cands = enumerate_implicit(xbar_cnf, [])
        assert len(cands) == 11 ** 3 - 7

    def test_minor_categories_never_mothers(self, xbar_implicit_rules):
        assert all(c.mother not in ("DT", "DG") for c in xbar_implicit_rules)


class TestBuildImplicitGrammar:
    def test_126_rules_27_explicit(self, xbar_implicit):
        ne, ni = xbar_implicit.nonzero_counts()
        assert (ne, ni) == (27, 99)
        assert len(xbar_implicit.rules()) == 126

    def test_normalized(self, xbar_implicit):
        xbar_implicit.check_normalized(tol=1e-9)

    def test_floor_values(self, xbar_implicit):
        implicit = [r for r in xbar_implicit.binary if r.origin == "implicit"]
        assert all(r.prob == pytest.approx(0.01) for r in implicit)

    def test_explicit_ratios_preserved(self, xbar_cnf, xbar_implicit):
        def ratio(g):
            vp1 = next(r for r in g.binary if (r.mother, r.left, r.right) == ("V1", "V0", "N1"))
            vp2 = next(r for r in g.binary if (r.mother, r.left, r.right) == ("V1", "V1", "A1"))
            return vp1.prob / vp2.prob

        assert ratio(xbar_implicit) == pytest.approx(ratio(xbar_cnf), rel=1e-12)

    def test_zero_floor_rejected(self, xbar_cnf, xbar_implicit_rules):
        with pytest.raises(GrammarError, match="floor"):
            build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.0)
        with pytest.raises(GrammarError, match="floor"):
            build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=float("nan"))

    def test_infeasible_floor_mass_rejected(self, xbar_cnf, xbar_implicit_rules):
        # V2 carries 27 implicit rules; a floor of 0.04 costs mass 1.08
        with pytest.raises(GrammarError, match="floor mass"):
            build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.04)

    def test_seeded_random_init(self, xbar_cnf, xbar_implicit_rules):
        a = build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.01,
                                   init="seeded-random", seed=1)
        b = build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.01,
                                   init="seeded-random", seed=2)
        a2 = build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.01,
                                    init="seeded-random", seed=1)
        keys = lambda g: [(r.mother, r.left, r.right) for r in g.binary]
        assert keys(a) == keys(b) == keys(a2)
        assert [r.prob for r in a.binary] == [r.prob for r in a2.binary]
        assert [r.prob for r in a.binary] != [r.prob for r in b.binary]
        a.check_normalized(tol=1e-9)
        imp = [r.prob for r in a.binary if r.origin == "implicit"]
        assert all(0.005 <= p <= 0.015 for p in imp)
