import math

import pytest

from xpcfg import fixtures
from xpcfg.grammar import GrammarError, compile_cnf, grammar_to_text, parse_grammar

CONSTRAINT_TEXT = "FEATURE N{+, -}\nFEATURE BAR{0, 1, 2}\nCONSTRAINT C : [] --> [], [];\n  %s."


class TestParseGrammar:
    def test_bundled_fixture_counts(self, xbar):
        assert len(xbar.features) == 4
        assert len(xbar.aliases) == 11
        assert len(xbar.ps_rules) == 7
        assert len(xbar.words) == 20
        assert len(xbar.constraints) == 2

    def test_declaration_order_preserved(self, xbar):
        assert [f.name for f in xbar.features] == ["N", "V", "BAR", "MINOR"]
        assert xbar.ps_rules[0].name == "S1"
        assert xbar.words[0].word == "cat"

    def test_empty_text(self):
        g = parse_grammar("")
        assert g.features == [] and g.aliases == [] and g.ps_rules == []

    def test_comment_lines_ignored(self):
        g = parse_grammar("; just a comment\nFEATURE V{+, -}\n")
        assert len(g.features) == 1

    def test_undeclared_alias_in_rule(self):
        text = "FEATURE V{+, -}\nALIAS V2 = [V +].\nALIAS V1 = [V -].\n" \
               "PSRULE X : V2 --> Q1 V1."
        with pytest.raises(GrammarError, match="Q1"):
            parse_grammar(text)

    def test_undeclared_feature_value(self):
        with pytest.raises(GrammarError, match="value '0'"):
            parse_grammar("FEATURE V{+, -}\nALIAS V2 = [V 0].")
        with pytest.raises(GrammarError, match="line 2:12: undeclared feature 'CASE'"):
            parse_grammar("FEATURE V{+, -}\nALIAS X = [CASE acc].")

    def test_duplicate_alias(self):
        text = "FEATURE V{+, -}\nALIAS A = [V +].\nALIAS A = [V -]."
        with pytest.raises(GrammarError, match="duplicate alias"):
            parse_grammar(text)

    def test_aliases_never_share_a_category(self):
        text = "FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V +]."
        with pytest.raises(GrammarError, match="duplicates the category"):
            parse_grammar(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(GrammarError, match="line 2"):
            parse_grammar("FEATURE V{+, -}\nALIAS = [V +].")

    @pytest.mark.parametrize("equation, col, message", [
        ("BAR(0)=(BAR(1) | BAR(1) -- x)", 30, "level offset must be a non-negative integer, got 'x'"),
        ("BAR(0)=(BAR(1) | BAR(1) -- -1)", 30, "level offset must be a non-negative integer, got '-'"),
        ("BAR(0)=(BAR(1) | N(1) -- 1)", 20, "disjunction must range over feature 'BAR'"),
        ("BAR(0)=(BAR(1) | BAR(2) -- 1)", 20, "disjunction must reference a single daughter slot"),
        ("BAR(1)=(BAR(2) | BAR(2) -- 1)", 3, "level disjunction must relate the mother to a daughter"),
        ("BAR(0)=N(1)", 10, "equation relates different features 'BAR' and 'N'"),
    ])
    def test_equation_error_carries_position(self, equation, col, message):
        with pytest.raises(GrammarError) as exc:
            parse_grammar(CONSTRAINT_TEXT % equation)
        assert (exc.value.line, exc.value.col) == (4, col)
        assert str(exc.value) == "line 4:%d: %s" % (col, message)

    @pytest.mark.parametrize("text, where, message", [
        ("FEATURE V{+, -}\nALIAS A = [V +].\nPSRULE S1 : A --> A A", "3:22", "expected '.'"),
        ("FEATURE V{+, -}\nALIAS", "2:6", "expected alias name"),
        ("FEATURE V{+, -}\n; comment\nALIAS A = [V\n; comment", "3:13", "expected feature value"),
    ])
    def test_end_of_input_is_just_past_the_last_token(self, text, where, message):
        # comment lines after the last token do not move the location
        with pytest.raises(GrammarError) as exc:
            parse_grammar(text)
        assert exc.value.line is not None
        assert str(exc.value) == "line %s: %s, got end of input" % (where, message)

    def test_probability_range(self):
        with pytest.raises(GrammarError, match="outside"):
            parse_grammar("FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V -].\n"
                          "PSRULE R : A --> B B. (1.5)")

    def test_missing_probability_is_unspecified(self):
        g = parse_grammar("FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V -].\n"
                          "PSRULE R : A --> B B.")
        assert g.ps_rules[0].prob is None

    def test_duplicate_word_declaration(self):
        text = ("FEATURE V{+, -}\nALIAS A = [V +].\n"
                "WORD cat : A. (0.5)\nWORD cat : A. (0.5)")
        with pytest.raises(GrammarError, match="duplicate word"):
            parse_grammar(text)

    def test_round_trip(self, xbar):
        again = parse_grammar(grammar_to_text(xbar))
        assert again.features == xbar.features
        assert again.aliases == xbar.aliases
        assert again.ps_rules == xbar.ps_rules
        assert again.words == xbar.words
        assert again.constraints == xbar.constraints


class TestCompileCnf:
    def test_bundled_fixture_shape(self, xbar_cnf):
        assert len(xbar_cnf.nonterminals) == 11
        assert len(xbar_cnf.terminals) == 20
        assert len(xbar_cnf.binary) == 7
        assert len(xbar_cnf.lexical) == 20
        assert xbar_cnf.root == "V2"

    def test_normalized_per_mother(self, xbar_cnf):
        xbar_cnf.check_normalized(tol=1e-9)
        totals = xbar_cnf.mother_totals()
        assert math.isclose(totals["V1"], 1.0, abs_tol=1e-12)

    def test_explicit_origin(self, xbar_cnf):
        assert all(r.origin == "explicit" for r in xbar_cnf.rules())

    def test_default_root_is_first_rule_mother(self, xbar):
        assert compile_cnf(xbar).root == "V2"

    def test_unknown_root(self, xbar):
        with pytest.raises(GrammarError, match="root"):
            compile_cnf(xbar, root="Z9")

    def test_words_only_grammar(self):
        g = parse_grammar("FEATURE V{+, -}\nALIAS A = [V +].\nWORD cat : A.")
        cnf = compile_cnf(g, root="A")
        assert cnf.binary == [] and len(cnf.lexical) == 1
        assert cnf.lexical[0].prob == 1.0

    def test_nonbinary_rule_rejected(self):
        g = parse_grammar("FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V -].\n"
                          "PSRULE R : A --> B B B.")
        with pytest.raises(GrammarError, match="^line 4: PS rule 'R' has 3 daughters") as err:
            compile_cnf(g, root="A")
        assert err.value.line == 4

    def test_unspecified_probabilities_fill_uniformly(self):
        g = parse_grammar(
            "FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V -].\n"
            "PSRULE R1 : A --> B B.\nPSRULE R2 : A --> A B.\nWORD x : B.")
        cnf = compile_cnf(g, root="A")
        assert cnf.binary[0].prob == pytest.approx(0.5)
        assert cnf.binary[1].prob == pytest.approx(0.5)

    def test_specified_probabilities_renormalize(self):
        # annotations summing to 1.2 come out rescaled, ratios kept
        g = parse_grammar(
            "FEATURE V{+, -}\nALIAS A = [V +].\nALIAS B = [V -].\n"
            "PSRULE R1 : A --> B B. (0.9)\nPSRULE R2 : A --> A B. (0.3)\nWORD x : B.")
        cnf = compile_cnf(g, root="A")
        assert cnf.binary[0].prob == pytest.approx(0.75)
        assert cnf.binary[1].prob == pytest.approx(0.25)

    def test_randomized_normalization_property(self):
        import random

        rng = random.Random(9)
        for _ in range(25):
            n_rules = rng.randint(1, 5)
            lines = ["FEATURE V{+, -}", "ALIAS A = [V +].", "ALIAS B = [V -]."]
            for i in range(n_rules):
                ann = "" if rng.random() < 0.4 else " (%.3f)" % rng.uniform(0.05, 1.0)
                lines.append("PSRULE R%d : A --> B B.%s" % (i, ann))
            lines.append("WORD x : B. (1.0)")
            cnf = compile_cnf(parse_grammar("\n".join(lines)), root="A")
            cnf.check_normalized(tol=1e-9)


def test_fixture_files_present():
    assert "PSRULE S1" in fixtures.xbar_text()
    assert len(fixtures.supplementary_text().splitlines()) == 28
    assert "implicit" in fixtures.trained_rules_text()
