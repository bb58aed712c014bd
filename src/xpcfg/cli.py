"""Command-line front end: compile, implicit-expand, generate, train, parse,
count, entropy and eval subcommands over line-oriented text files.

Every subcommand that writes an output file also writes a sibling
``<output>.manifest.json`` recording the subcommand, input paths, seed,
configuration and toolkit version, sufficient to reproduce the artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .chart import (
    NoParseError,
    ParseError,
    corpus_map,
    count_parses,
    format_report,
    format_tree,
    parse_report,
    unconstrained_count,
)
from .constraints import build_implicit_grammar, enumerate_implicit
from .generate import GenConfig, corpus_to_text, load_corpus, sample_corpus, sample_palindromes
from .grammar import GrammarError, compile_cnf, parse_grammar
from .metrics import entropy
from .scoring import evaluate_corpus, format_corpus_score, load_gold_trees
from .training import TrainConfig, parse_rules, save_rules, train


def _detect_and_load_grammar(path, root=None):
    """Load either a grammar-formalism file or a rule-per-line file.

    Formalism files start with a declaration keyword; rule files consist of
    'M --> ...' lines.  Formalism files are compiled (explicit rules only);
    use the implicit subcommand to add constraint-licensed rules.
    """
    with open(path) as fh:
        text = fh.read()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        keyword = stripped.split()[0]
        if keyword in ("FEATURE", "ALIAS", "PSRULE", "WORD", "CONSTRAINT"):
            return compile_cnf(parse_grammar(text), root=root)
        break
    return parse_rules(text, root=root)


def _write_manifest(args, started):
    config = {k: v for k, v in vars(args).items() if k not in ("func",)}
    manifest = {
        "subcommand": args.command,
        "inputs": {k: v for k, v in config.items()
                   if k in ("grammar", "corpus", "gold") and v is not None},
        "seed": config.get("seed"),
        "config": config,
        "toolkit_version": __version__,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    with open(args.output + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, text):
    """Write text to the -o file if one is given, else to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compile(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    ne, ni = cnf.nonzero_counts()
    print("%d nonterminals, %d terminals, %d rules (root %s)"
          % (len(cnf.nonterminals), len(cnf.terminals), ne + ni, cnf.root))
    if args.output:
        save_rules(cnf, args.output)
    return 0


def cmd_implicit(args):
    with open(args.grammar) as fh:
        g = parse_grammar(fh.read())
    cnf = compile_cnf(g, root=args.root)
    implicit = enumerate_implicit(cnf, g.constraints)
    if args.list_only:
        _emit(args, "\n".join("%s --> %s %s  implicit" % (c.mother, c.d1, c.d2)
                               for c in implicit) + "\n")
        print("%d implicit rules licensed" % len(implicit))
        return 0
    ig = build_implicit_grammar(cnf, implicit, floor=args.floor, init=args.init, seed=args.seed)
    ne, ni = ig.nonzero_counts()
    print("%d rules: %d explicit + %d implicit" % (ne + ni, ne, ni))
    if args.output:
        save_rules(ig, args.output)
    return 0


def cmd_generate(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    config = GenConfig(count=args.count, seed=args.seed,
                       max_depth=args.max_depth, max_length=args.max_length)
    corpus = sample_corpus(cnf, config)
    _emit(args, corpus_to_text(corpus))
    print("%d sentences, %d tokens" % (len(corpus), sum(len(s) for s in corpus)), file=sys.stderr)
    return 0


def cmd_palindromes(args):
    _emit(args, corpus_to_text(sample_palindromes(args.count, seed=args.seed)))
    return 0


def cmd_train(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    corpus = load_corpus(args.corpus)
    config = TrainConfig(max_iterations=args.max_iter, convergence_tol=args.tol,
                         prune_threshold=args.prune)

    def show(step):
        print("iteration %d: log-likelihood %.6f, %d nonzero rules"
              % (step.iteration, step.log_likelihood, step.explicit_rules + step.implicit_rules),
              flush=True)

    report = train(cnf, corpus, config, on_iteration=show)
    ne, ni = report.grammar.nonzero_counts()
    print("%s after %d iterations: %d nonzero rules (%d explicit + %d implicit)"
          % ("converged" if report.converged else "stopped",
             report.iterations, ne + ni, ne, ni))
    print("coverage: %.1f%% before, %.1f%% after; skipped %d"
          % (100 * report.coverage_before, 100 * report.coverage_after, report.skipped))
    if args.output:
        save_rules(report.grammar, args.output)
    return 0


def cmd_parse(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    corpus = load_corpus(args.corpus)

    def lines(tokens, chart=None):
        try:
            report = parse_report(cnf, tokens, chart)
        except (ParseError, NoParseError) as exc:
            return ["no parse: %s" % exc]
        return [format_tree(report.tree, style=args.format), format_report(report)]

    out = []
    # left out by corpus_map: parse_report raises the unknown token's ParseError
    for tokens, text in zip(corpus, corpus_map(cnf, corpus, lambda c: lines(c.tokens, c))):
        out += [" ".join(tokens)] + (text or lines(tokens)) + [""]
    _emit(args, "\n".join(out))
    return 0


def cmd_count(args):
    if args.unconstrained:
        n, nts = args.unconstrained
        print(unconstrained_count(n, nts))
        return 0
    if not (args.grammar and args.corpus):
        raise SystemExit("count needs either --unconstrained N NTS or --grammar and --corpus")
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    corpus = load_corpus(args.corpus)
    # corpus_map leaves out empty sentences and those with an unknown token: 0
    for tokens, count in zip(corpus, corpus_map(cnf, corpus, count_parses)):
        print("%d\t%s" % (count or 0, " ".join(tokens)))
    return 0


def cmd_entropy(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    report = entropy(cnf, load_corpus(args.corpus))
    print("%-24s %8s %8s" % ("", "H3a", "H3b"))
    print("%-24s %8.4f %8.4f" % (args.label, report.h3a, report.h3b))
    if report.skipped:
        print("(%d unparseable sentences excluded)" % report.skipped)
    return 0


def cmd_eval(args):
    cnf = _detect_and_load_grammar(args.grammar, root=args.root)
    gold = load_gold_trees(args.gold)
    score = evaluate_corpus(cnf, gold)
    print(format_corpus_score(score))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xpcfg",
        description="Compile feature grammars to CNF PCFGs, license implicit rules, "
                    "train inside-outside, parse and evaluate.")
    parser.add_argument("--version", action="version", version="xpcfg " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    grammar = argparse.ArgumentParser(add_help=False)
    grammar.add_argument("--grammar", required=True)
    grammar.add_argument("--root", default=None)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None)

    def add(name, fn, *parents, **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=fn)
        return p

    add("compile", cmd_compile, grammar, output, help="compile a grammar file to CNF rules")

    p = add("implicit", cmd_implicit, grammar, output, help="add constraint-licensed implicit rules")
    p.add_argument("--floor", type=float, default=0.01)
    p.add_argument("--init", choices=["deterministic", "seeded-random"],
                   default="deterministic")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--list-only", action="store_true",
                   help="dump the licensed rule list instead of a grammar")

    p = add("generate", cmd_generate, grammar, output, help="sample sentences from a grammar")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=100)
    p.add_argument("--max-length", type=int, default=100)

    p = add("palindromes", cmd_palindromes, output, help="sample from the mirror language")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    p = add("train", cmd_train, grammar, output, help="inside-outside re-estimation on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-iter", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--prune", type=float, default=1e-5)

    p = add("parse", cmd_parse, grammar, output, help="Viterbi-parse sentences and report stats")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["paren", "appendix3"], default="paren")

    p = add("count", cmd_count, help="derivation counts, exact")
    p.add_argument("--unconstrained", nargs=2, type=int, metavar=("N", "NTS"),
                   default=None, help="Catalan(N-1) * NTS**(N-1)")
    p.add_argument("--grammar", default=None)
    p.add_argument("--root", default=None)
    p.add_argument("--corpus", default=None)

    p = add("entropy", cmd_entropy, grammar, help="per-word entropy of a corpus under a grammar")
    p.add_argument("--corpus", required=True)
    p.add_argument("--label", default="corpus")

    p = add("eval", cmd_eval, grammar, help="bracket recall/precision/crossings against gold trees")
    p.add_argument("--gold", required=True)

    return parser


def main(argv=None):
    """Run a subcommand; after it succeeds, write <output>.manifest.json
    beside the file it wrote, if any."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        code = args.func(args)
        if getattr(args, "output", None):
            _write_manifest(args, started)
        return code
    except (GrammarError, ParseError, NoParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
