"""Toolkit for compiling small feature-based grammars into CNF PCFGs,
expanding them with constraint-licensed implicit rules, training them with
inside-outside re-estimation, and evaluating the resulting parsers."""

__version__ = "0.1.0"

from .grammar import (
    Category,
    CnfGrammar,
    Grammar,
    GrammarError,
    compile_cnf,
    grammar_to_text,
    parse_grammar,
)
from .constraints import (
    RuleCandidate,
    build_implicit_grammar,
    enumerate_implicit,
    parse_constraint,
    satisfies,
)
from .chart import (
    Chart,
    NoParseError,
    ParseError,
    Tree,
    count_parses,
    cyk_fill,
    format_report,
    format_tree,
    likelihood_ratio,
    parse_report,
    unconstrained_count,
    viterbi_parse,
)
from .training import (
    TrainConfig,
    IterationReport,
    TrainReport,
    expected_counts,
    load_rules,
    parse_rules,
    prune,
    reestimate,
    save_rules,
    train,
)
from .generate import (
    GenConfig,
    GenerationError,
    ergodic_grammar,
    load_corpus,
    palindrome_grammar,
    sample_corpus,
    sample_palindromes,
)
from .metrics import EntropyReport, corpus_logprobs, entropy
from .scoring import (
    BracketSet,
    GeigScore,
    brackets_of,
    evaluate_corpus,
    geig_score,
    load_gold_trees,
)
