import json

import pytest

from xpcfg import cli, fixtures
from xpcfg.chart import (
    NoParseError,
    ParseError,
    count_parses,
    cyk_fill,
    format_report,
    format_tree,
    parse_report,
)
from xpcfg.cli import main


@pytest.fixture()
def xbar_path(tmp_path):
    p = tmp_path / "xbar.gr"
    p.write_text(fixtures.xbar_text())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompile:
    def test_summary(self, capsys, xbar_path):
        code, out, _ = run(capsys, "compile", "--grammar", xbar_path)
        assert code == 0
        assert "11 nonterminals, 20 terminals, 27 rules (root V2)" in out

    def test_root_flag(self, capsys, xbar_path):
        code, out, _ = run(capsys, "compile", "--grammar", xbar_path, "--root", "V1")
        assert code == 0
        assert "root V1" in out

    def test_bad_path(self, capsys):
        code, _, err = run(capsys, "compile", "--grammar", "/nonexistent/g.gr")
        assert code == 1
        assert "error:" in err

    def test_writes_rules_and_manifest(self, capsys, xbar_path, tmp_path):
        out_path = tmp_path / "xbar.rules"
        code, _, _ = run(capsys, "compile", "--grammar", xbar_path, "-o", str(out_path))
        assert code == 0
        assert out_path.exists()
        manifest = json.loads((tmp_path / "xbar.rules.manifest.json").read_text())
        assert manifest["subcommand"] == "compile"
        assert manifest["toolkit_version"]
        assert manifest["inputs"]["grammar"] == xbar_path

    def test_rule_file_keeps_its_root(self, capsys, xbar_path, tmp_path):
        # the first rule's mother is V2; the file records V1, and --root wins
        out_path = str(tmp_path / "v1.rules")
        run(capsys, "compile", "--grammar", xbar_path, "--root", "V1", "-o", out_path)
        code, out, _ = run(capsys, "compile", "--grammar", out_path)
        assert code == 0
        assert "(root V1)" in out
        code, out, _ = run(capsys, "compile", "--grammar", out_path, "--root", "N1")
        assert "(root N1)" in out


class TestImplicit:
    def test_summary(self, capsys, xbar_path):
        code, out, _ = run(capsys, "implicit", "--grammar", xbar_path, "--floor", "0.01")
        assert code == 0
        assert "126 rules: 27 explicit + 99 implicit" in out

    def test_nan_floor_rejected(self, capsys, xbar_path, tmp_path):
        out_path = tmp_path / "f.rules"
        code, _, err = run(capsys, "implicit", "--grammar", xbar_path, "--floor", "nan",
                           "-o", str(out_path))
        assert code == 1
        assert "error:" in err
        assert not out_path.exists()

    def test_floor_too_large(self, capsys, xbar_path):
        code, _, err = run(capsys, "implicit", "--grammar", xbar_path, "--floor", "0.04")
        assert code == 1
        assert "floor mass" in err

    def test_seeded_random_same_rules_different_probs(self, capsys, xbar_path, tmp_path):
        a, b = tmp_path / "a.rules", tmp_path / "b.rules"
        run(capsys, "implicit", "--grammar", xbar_path, "--init", "seeded-random",
            "--seed", "1", "-o", str(a))
        run(capsys, "implicit", "--grammar", xbar_path, "--init", "seeded-random",
            "--seed", "2", "-o", str(b))
        rules_a = [line.split()[:5] for line in a.read_text().splitlines()]
        rules_b = [line.split()[:5] for line in b.read_text().splitlines()]
        assert [r[:4] for r in rules_a] == [r[:4] for r in rules_b]
        assert rules_a != rules_b

    def test_list_only(self, capsys, xbar_path):
        code, out, _ = run(capsys, "implicit", "--grammar", xbar_path, "--list-only")
        assert code == 0
        lines = [l for l in out.splitlines() if "-->" in l]
        assert len(lines) == 99
        assert all(l.endswith("implicit") for l in lines)
        assert "V2 --> A1 V2  implicit" in lines


class TestCount:
    def test_unconstrained(self, capsys):
        code, out, _ = run(capsys, "count", "--unconstrained", "20", "10")
        assert code == 0
        assert out.strip() == "17672631900000000000000000000"

    def test_corpus_counts(self, capsys, xbar_path, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat chases the ball\nchases chases\n")
        code, out, _ = run(capsys, "count", "--grammar", xbar_path, "--corpus", str(corpus))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1\t")
        assert lines[1].startswith("0\t")

    def test_needs_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main(["count"])


class TestGenerateTrainParse:
    def test_generate_deterministic_with_manifest(self, capsys, xbar_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "generate", "--grammar", xbar_path, "--count", "30",
            "--seed", "9", "-o", str(a))
        run(capsys, "generate", "--grammar", xbar_path, "--count", "30",
            "--seed", "9", "-o", str(b))
        assert a.read_text() == b.read_text()
        manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_palindromes(self, capsys, tmp_path):
        out_path = tmp_path / "pal.txt"
        code, _, _ = run(capsys, "palindromes", "--count", "20", "--seed", "3",
                         "-o", str(out_path))
        assert code == 0
        for line in out_path.read_text().splitlines():
            toks = line.split()
            assert toks == toks[::-1]

    def test_pipeline_train_parse_eval(self, capsys, xbar_path, tmp_path):
        corpus = tmp_path / "corpus.txt"
        implicit = tmp_path / "implicit.rules"
        model = tmp_path / "model.rules"

        run(capsys, "generate", "--grammar", xbar_path, "--count", "40",
            "--seed", "1", "-o", str(corpus))
        run(capsys, "implicit", "--grammar", xbar_path, "-o", str(implicit))
        code, out, _ = run(capsys, "train", "--grammar", str(implicit),
                           "--corpus", str(corpus), "--max-iter", "3",
                           "-o", str(model))
        assert code == 0
        assert "iteration 1:" in out
        assert model.exists()
        assert json.loads((tmp_path / "model.rules.manifest.json").read_text())

        code, out, _ = run(capsys, "parse", "--grammar", str(model),
                           "--corpus", str(corpus))
        assert code == 0
        assert "best " in out and " likelihood " in out and " count " in out
        assert out.count("(V2") >= 1

        code, out, _ = run(capsys, "parse", "--grammar", str(model),
                           "--corpus", str(corpus), "--format", "appendix3")
        assert code == 0
        assert "[V2 " in out

        code, out, _ = run(capsys, "entropy", "--grammar", str(model),
                           "--corpus", str(corpus), "--label", "trained")
        assert code == 0
        assert "H3a" in out and "trained" in out

        # self-evaluation: gold trees are the grammar's own parses
        gold = tmp_path / "gold.txt"
        from xpcfg.chart import cyk_fill, tree_to_paren, viterbi_parse
        from xpcfg.generate import load_corpus
        from xpcfg.training import load_rules

        g = load_rules(str(model), root="V2")
        lines = [tree_to_paren(viterbi_parse(cyk_fill(g, s), g)[0])
                 for s in load_corpus(str(corpus))]
        gold.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "eval", "--grammar", str(model), "--gold", str(gold))
        assert code == 0
        assert "Total Recall (%)" in out
        assert "100.00" in out

    def test_nan_tolerance_rejected(self, capsys, xbar_path, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat chases the ball\n")
        code, _, err = run(capsys, "train", "--grammar", xbar_path, "--corpus", str(corpus),
                           "--tol", "nan")
        assert code == 1
        assert "error:" in err

    def test_empty_gold_set_rejected(self, capsys, xbar_path, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("")
        code, out, err = run(capsys, "eval", "--grammar", xbar_path, "--gold", str(gold))
        assert code == 1
        assert "error: empty gold set" in err
        assert "Recall" not in out

    def test_no_parse_reported(self, capsys, xbar_path, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("chases chases\n")
        code, out, _ = run(capsys, "parse", "--grammar", xbar_path,
                           "--corpus", str(corpus))
        assert code == 0
        assert out == "chases chases\nno parse: no parse for 'chases chases'\n"


class TestCorpusPath:
    """parse and count fill each distinct sentence once, in length batches,
    and print exactly what a per-sentence loop prints."""

    @pytest.fixture()
    def paths(self, tmp_path, mixed_corpus):
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(" ".join(tokens) + "\n" for tokens in mixed_corpus))
        return fixtures.fixture_path("xbar_trained.rules"), str(corpus)

    @pytest.mark.parametrize("style", ["paren", "appendix3"])
    def test_parse_equals_per_sentence_reports(self, capsys, paths, mixed_corpus, style):
        grammar = cli._detect_and_load_grammar(paths[0])
        expect = []
        for tokens in mixed_corpus:
            expect.append(" ".join(tokens))
            try:
                report = parse_report(grammar, tokens)
            except (ParseError, NoParseError) as exc:
                expect.append("no parse: %s" % exc)
            else:
                expect += [format_tree(report.tree, style=style), format_report(report)]
            expect.append("")
        code, out, _ = run(capsys, "parse", "--grammar", paths[0], "--corpus", paths[1],
                           "--format", style)
        assert code == 0
        assert out == "\n".join(expect)
        assert out.count("no parse: unknown token 'dog'") == 2
        assert out.count("no parse: no parse for 'chases chases'") == 2

    def test_count_equals_per_sentence_counts(self, capsys, paths, mixed_corpus):
        grammar = cli._detect_and_load_grammar(paths[0])
        expect = ""
        for tokens in mixed_corpus:
            try:
                count = count_parses(cyk_fill(grammar, tokens))
            except ParseError:
                count = 0
            expect += "%d\t%s\n" % (count, " ".join(tokens))
        code, out, _ = run(capsys, "count", "--grammar", paths[0], "--corpus", paths[1])
        assert code == 0
        assert out == expect


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_train_continues_from_trained_model(capsys, xbar_path, tmp_path):
    # retraining takes whatever grammar file it is given, so continuing from
    # a previous model is just passing that model back in
    corpus = tmp_path / "c.txt"
    implicit = tmp_path / "implicit.rules"
    first = tmp_path / "first.rules"
    second = tmp_path / "second.rules"
    run(capsys, "generate", "--grammar", xbar_path, "--count", "30", "--seed", "2",
        "-o", str(corpus))
    run(capsys, "implicit", "--grammar", xbar_path, "-o", str(implicit))
    run(capsys, "train", "--grammar", str(implicit), "--corpus", str(corpus),
        "--max-iter", "2", "-o", str(first))
    code, out, _ = run(capsys, "train", "--grammar", str(first), "--corpus", str(corpus),
                       "--max-iter", "2", "-o", str(second))
    assert code == 0
    assert second.exists()


def test_train_streams_iteration_lines(capsys, monkeypatch, xbar_path, tmp_path):
    # each iteration line is printed as the iteration ends, before train()
    # returns, in the same format as the report's figures
    corpus = tmp_path / "c.txt"
    implicit = tmp_path / "implicit.rules"
    run(capsys, "generate", "--grammar", xbar_path, "--count", "30", "--seed", "2",
        "-o", str(corpus))
    run(capsys, "implicit", "--grammar", xbar_path, "-o", str(implicit))
    printed, reports = [], []
    train = cli.train

    def spy(*args, **kwargs):
        reports.append(train(*args, **kwargs))
        printed.append(capsys.readouterr().out)
        return reports[-1]

    monkeypatch.setattr(cli, "train", spy)
    code, out, _ = run(capsys, "train", "--grammar", str(implicit), "--corpus", str(corpus),
                       "--max-iter", "3")
    assert code == 0
    report = reports[0]
    assert printed[0].splitlines() == [
        "iteration %d: log-likelihood %.6f, %d nonzero rules" % (i, ll, live)
        for i, (ll, live) in enumerate(zip(report.log_likelihoods, report.nonzero_rules), 1)]
    assert not any(line.startswith("iteration ") for line in out.splitlines())
