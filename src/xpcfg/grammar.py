"""Parser and compiler for the feature-based grammar formalism.

A grammar file is a sequence of declarations:

    FEATURE V{+, -}
    ALIAS V2 = [V +, N -, BAR 2].
    PSRULE S1 : V2 --> N1 V1. (1.0)
    WORD cat : N0. (0.15)
    CONSTRAINT HEAD1 : [N, V, BAR(NOT 0)] --> [], [];
        N(0)=N(1), V(0)=V(1), BAR(0)=(BAR(1) | BAR(1) -- 1).

Aliases name feature bundles; PS rules and word declarations are stated over
aliases and compile directly to a CNF PCFG (binary rules plus preterminal
rules).  Probabilities are optional trailing annotations; missing ones are
filled uniformly per mother and everything is renormalised at compile time.

A ``;`` starts a comment only when it is the first non-blank character of a
line (inside CONSTRAINT declarations ``;`` separates the rule pattern from
the feature equations, so it cannot be a general comment character).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal


class GrammarError(Exception):
    """Raised for syntax errors and declaration-level inconsistencies."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d%s: %s" % (line, "" if col is None else ":%d" % col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class Category:
    """An immutable bundle of feature -> value assignments."""

    __slots__ = ("_assign",)

    def __init__(self, assignments):
        self._assign = dict(assignments)

    def get(self, feature):
        return self._assign.get(feature)

    def items(self):
        return self._assign.items()

    def __eq__(self, other):
        return isinstance(other, Category) and self._assign == other._assign

    def __hash__(self):
        return hash(frozenset(self._assign.items()))

    def __repr__(self):
        inner = ", ".join("%s %s" % fv for fv in sorted(self._assign.items()))
        return "[%s]" % inner


@dataclass(frozen=True)
class FeatureDecl:
    name: str
    values: tuple


@dataclass(frozen=True)
class Alias:
    name: str
    category: Category


@dataclass(frozen=True)
class PsRule:
    name: str
    mother: str
    daughters: tuple
    prob: float | None


@dataclass(frozen=True)
class WordDecl:
    word: str
    preterminal: str
    prob: float | None


# Constraint AST.  The semantics live in xpcfg.constraints; the parser here
# only builds the structure, preserving NOT tests and disjunctions.

PRESENT, EQ, NEQ = "present", "eq", "neq"


@dataclass(frozen=True)
class FeatureTest:
    feature: str
    kind: str  # PRESENT, EQ or NEQ
    value: str | None = None


@dataclass(frozen=True)
class CatPattern:
    tests: tuple  # of FeatureTest

    def is_empty(self):
        return not self.tests


@dataclass(frozen=True)
class EqConst:
    """F(slot) = value"""

    feature: str
    slot: int
    value: str


@dataclass(frozen=True)
class EqSlots:
    """F(slot_a) = F(slot_b)"""

    feature: str
    slot_a: int
    slot_b: int


@dataclass(frozen=True)
class EqBarLevel:
    """F(0) = (F(d) | F(d) -- 1) over an ordered feature.

    The printed form relates the mother's level to a daughter's level with a
    unit offset; it is evaluated as: the daughter's value equals the mother's
    value plus one of ``deltas`` (so deltas (0, -1) means the daughter sits at
    the mother's level or exactly one below it).
    """

    feature: str
    daughter_slot: int
    deltas: tuple = (0, -1)


@dataclass(frozen=True)
class Constraint:
    name: str
    pattern: tuple  # (mother CatPattern, daughter1 CatPattern, daughter2 CatPattern)
    equations: tuple

    def restricts_preterminal_introduction(self):
        """True for constraints whose daughter patterns both pin BAR to 0.

        Such a constraint governs rules that rewrite directly to a pair of
        preterminal-level categories, and switches the enumerator into the
        mode where implicit rules may introduce new preterminal material in
        first daughter position only.
        """
        def pins_bar_zero(pat):
            return any(t.feature == "BAR" and t.kind == EQ and t.value == "0" for t in pat.tests)

        return pins_bar_zero(self.pattern[1]) and pins_bar_zero(self.pattern[2])


@dataclass
class Grammar:
    """Structured form of a grammar file, declarations in source order."""

    features: list = field(default_factory=list)
    aliases: list = field(default_factory=list)
    ps_rules: list = field(default_factory=list)
    words: list = field(default_factory=list)
    constraints: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ARROW>-->)
  | (?P<DDASH>--)
  | (?P<ATOM>[A-Za-z0-9_$&'+]+)
  | (?P<SYM>[{}\[\](),;:.=|-])
  | (?P<WS>[ \t]+)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith(";"):
            continue
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "WS":
                continue
            if kind == "BAD":
                raise GrammarError("unexpected character %r" % m.group(), lineno, m.start() + 1)
            text_ = m.group()
            if kind == "SYM":
                kind = text_
            tokens.append(Token(kind, text_, lineno, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def where(self, tok):
        """Line and column of tok, or just past the last token at the end of
        input (tok None)."""
        last = self.tokens[-1]
        return (tok.line, tok.col) if tok else (last.line, last.col + len(last.text))

    def next(self):
        tok = self.peek()
        if tok is None:
            raise GrammarError("unexpected end of input", *self.where(None))
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            got = "end of input" if tok is None else repr(tok.text)
            raise GrammarError("expected %r, got %s" % (kind, got), *self.where(tok))
        return self.next()

    def accept(self, kind):
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            return self.next()
        return None

    def atom(self, what="identifier"):
        tok = self.peek()
        if tok is None or tok.kind not in ("ATOM", "-"):
            got = "end of input" if tok is None else repr(tok.text)
            raise GrammarError("expected %s, got %s" % (what, got), *self.where(tok))
        return self.next()

    # -- shared pieces -----------------------------------------------------

    def opt_probability(self):
        """Trailing '(p)' annotation; returns None when absent."""
        if self.accept("("):
            tok = self.atom("probability")
            trailing = ""
            if self.accept("."):
                trailing = "." + self.atom("digits").text
            self.expect(")")
            try:
                p = float(tok.text + trailing)
            except ValueError:
                raise GrammarError("bad probability %r" % (tok.text + trailing), tok.line, tok.col)
            if not 0.0 < p <= 1.0:
                raise GrammarError("probability %g outside (0, 1]" % p, tok.line, tok.col)
            return p
        return None

    def category_body(self, features):
        """'[f v, f v, ...]' with the leading '[' already consumed."""
        assign = {}
        if self.accept("]"):
            return Category(assign)
        while True:
            ftok = self.atom("feature name")
            vtok = self.atom("feature value")
            _check_feature_value(features, ftok, vtok)
            assign[ftok.text] = vtok.text
            if self.accept("]"):
                return Category(assign)
            self.expect(",")

    def cat_pattern(self, features):
        """'[...]' pattern with bare, valued, and NOT-valued feature tests."""
        self.expect("[")
        tests = []
        if self.accept("]"):
            return CatPattern(())
        while True:
            ftok = self.atom("feature name")
            _check_feature(features, ftok)
            if self.accept("("):
                negtok = self.atom("value or NOT")
                if negtok.text == "NOT":
                    vtok = self.atom("feature value")
                    _check_feature_value(features, ftok, vtok)
                    tests.append(FeatureTest(ftok.text, NEQ, vtok.text))
                else:
                    _check_feature_value(features, ftok, negtok)
                    tests.append(FeatureTest(ftok.text, EQ, negtok.text))
                self.expect(")")
            elif self.peek() and self.peek().kind in ("ATOM", "-") and self.peek().text != "NOT":
                vtok = self.atom("feature value")
                _check_feature_value(features, ftok, vtok)
                tests.append(FeatureTest(ftok.text, EQ, vtok.text))
            else:
                tests.append(FeatureTest(ftok.text, PRESENT))
            if self.accept("]"):
                return CatPattern(tuple(tests))
            self.expect(",")

    def feature_slot(self, features):
        """'F(i)' -> (feature token, slot index)."""
        ftok = self.atom("feature name")
        _check_feature(features, ftok)
        self.expect("(")
        itok = self.atom("slot index")
        self.expect(")")
        if itok.text not in ("0", "1", "2"):
            raise GrammarError("slot index must be 0, 1 or 2", itok.line, itok.col)
        return ftok, int(itok.text)

    def equation(self, features):
        ftok, slot = self.feature_slot(features)
        feat = ftok.text
        self.expect("=")
        if self.accept("("):
            # Disjunction, e.g. (BAR(1) | BAR(1) -- 1): mother level relates
            # to a daughter level at zero or unit offset.
            deltas = []
            dslot = None
            while True:
                f2, s2 = self.feature_slot(features)
                if f2.text != feat:
                    raise GrammarError("disjunction must range over feature %r" % feat,
                                       f2.line, f2.col)
                if dslot is None:
                    dslot = s2
                elif s2 != dslot:
                    raise GrammarError("disjunction must reference a single daughter slot",
                                       f2.line, f2.col)
                if self.accept("DDASH"):
                    off = self.atom("offset")
                    if not off.text.isdigit():
                        raise GrammarError("level offset must be a non-negative integer, got %r"
                                           % off.text, off.line, off.col)
                    deltas.append(-int(off.text))
                else:
                    deltas.append(0)
                if self.accept(")"):
                    break
                self.expect("|")
            if slot != 0 or dslot == 0:
                raise GrammarError("level disjunction must relate the mother to a daughter",
                                   ftok.line, ftok.col)
            return EqBarLevel(feat, dslot, tuple(deltas))
        nxt = self.peek()
        if nxt is not None and nxt.kind == "ATOM" and self.pos + 1 < len(self.tokens) \
                and self.tokens[self.pos + 1].kind == "(":
            f2, s2 = self.feature_slot(features)
            if f2.text != feat:
                raise GrammarError("equation relates different features %r and %r"
                                   % (feat, f2.text), f2.line, f2.col)
            return EqSlots(feat, slot, s2)
        vtok = self.atom("feature value")
        _check_feature_value(features, Token("ATOM", feat, vtok.line, vtok.col), vtok)
        return EqConst(feat, slot, vtok.text)


def _check_feature(features, ftok):
    if ftok.text not in features:
        raise GrammarError("undeclared feature %r" % ftok.text, ftok.line, ftok.col)


def _check_feature_value(features, ftok, vtok):
    _check_feature(features, ftok)
    if vtok.text not in features[ftok.text].values:
        raise GrammarError(
            "value %r not declared for feature %r" % (vtok.text, ftok.text), vtok.line, vtok.col
        )


# ---------------------------------------------------------------------------
# Declaration-level parsing

def parse_grammar(text):
    """Parse grammar source into a Grammar, preserving declaration order."""
    p = _Parser(_tokenize(text))
    g = Grammar()
    features = {}
    aliases = {}
    cat_to_alias = {}
    rule_names = set()
    word_pairs = set()

    while p.peek() is not None:
        tok = p.next()
        if tok.kind != "ATOM":
            raise GrammarError("expected declaration keyword, got %r" % tok.text, tok.line, tok.col)
        kw = tok.text

        if kw == "FEATURE":
            name = p.atom("feature name")
            if name.text in features:
                raise GrammarError("duplicate feature %r" % name.text, name.line, name.col)
            p.expect("{")
            values = []
            while True:
                values.append(p.atom("feature value").text)
                if p.accept("}"):
                    break
                p.expect(",")
            p.accept(".")
            if not values:
                raise GrammarError("feature %r has no values" % name.text, name.line, name.col)
            decl = FeatureDecl(name.text, tuple(values))
            features[name.text] = decl
            g.features.append(decl)

        elif kw == "ALIAS":
            name = p.atom("alias name")
            if name.text in aliases:
                raise GrammarError("duplicate alias %r" % name.text, name.line, name.col)
            p.expect("=")
            p.expect("[")
            cat = p.category_body(features)
            p.expect(".")
            if cat in cat_to_alias:
                raise GrammarError(
                    "alias %r duplicates the category of %r" % (name.text, cat_to_alias[cat]),
                    name.line, name.col,
                )
            alias = Alias(name.text, cat)
            aliases[name.text] = alias
            cat_to_alias[cat] = name.text
            g.aliases.append(alias)

        elif kw == "PSRULE":
            name = p.atom("rule name")
            if name.text in rule_names:
                raise GrammarError("duplicate PS rule name %r" % name.text, name.line, name.col)
            p.expect(":")
            mother = p.atom("mother alias")
            p.expect("ARROW")
            daughters = []
            while p.peek() is not None and p.peek().kind == "ATOM":
                daughters.append(p.next())
            p.expect(".")
            prob = p.opt_probability()
            for t in (mother, *daughters):
                if t.text not in aliases:
                    raise GrammarError("unknown alias %r" % t.text, t.line, t.col)
            rule_names.add(name.text)
            g.ps_rules.append(PsRule(name.text, mother.text, tuple(d.text for d in daughters), prob))

        elif kw == "WORD":
            word = p.atom("word")
            p.expect(":")
            pre = p.atom("preterminal alias")
            p.expect(".")
            prob = p.opt_probability()
            if pre.text not in aliases:
                raise GrammarError("unknown alias %r" % pre.text, pre.line, pre.col)
            if (word.text, pre.text) in word_pairs:
                raise GrammarError("duplicate word declaration %r : %s" % (word.text, pre.text),
                                   word.line, word.col)
            word_pairs.add((word.text, pre.text))
            g.words.append(WordDecl(word.text, pre.text, prob))

        elif kw == "CONSTRAINT":
            name = p.atom("constraint name")
            p.expect(":")
            mother_pat = p.cat_pattern(features)
            p.expect("ARROW")
            d1 = p.cat_pattern(features)
            p.accept(",")
            d2 = p.cat_pattern(features)
            equations = []
            if p.accept(";"):
                while True:
                    equations.append(p.equation(features))
                    if p.accept("."):
                        break
                    p.expect(",")
            else:
                p.expect(".")
            g.constraints.append(Constraint(name.text, (mother_pat, d1, d2), tuple(equations)))

        else:
            raise GrammarError("unknown declaration %r" % kw, tok.line, tok.col)

    return g


def grammar_to_text(g):
    """Pretty-print a Grammar so that re-parsing reproduces it."""
    lines = []
    for f in g.features:
        lines.append("FEATURE %s{%s}" % (f.name, ", ".join(f.values)))
    for a in g.aliases:
        inner = ", ".join("%s %s" % fv for fv in a.category.items())
        lines.append("ALIAS %s = [%s]." % (a.name, inner))
    for r in g.ps_rules:
        ann = "" if r.prob is None else " (%s)" % _fmt_prob(r.prob)
        lines.append("PSRULE %s : %s --> %s.%s" % (r.name, r.mother, " ".join(r.daughters), ann))
    for w in g.words:
        ann = "" if w.prob is None else " (%s)" % _fmt_prob(w.prob)
        lines.append("WORD %s : %s.%s" % (w.word, w.preterminal, ann))
    for c in g.constraints:
        lines.append(_constraint_to_text(c))
    return "\n".join(lines) + "\n"


def _fmt_prob(p):
    """The shortest positional decimal that reads back as p: the grammar
    syntax has no exponents."""
    return format(Decimal(repr(p)), "f")


def _pattern_to_text(pat):
    parts = []
    for t in pat.tests:
        if t.kind == PRESENT:
            parts.append(t.feature)
        elif t.kind == EQ:
            parts.append("%s %s" % (t.feature, t.value))
        else:
            parts.append("%s(NOT %s)" % (t.feature, t.value))
    return "[%s]" % ", ".join(parts)


def _constraint_to_text(c):
    m, d1, d2 = c.pattern
    head = "CONSTRAINT %s : %s --> %s, %s" % (
        c.name, _pattern_to_text(m), _pattern_to_text(d1), _pattern_to_text(d2))
    if not c.equations:
        return head + "."
    eqs = []
    for e in c.equations:
        if isinstance(e, EqConst):
            eqs.append("%s(%d)=%s" % (e.feature, e.slot, e.value))
        elif isinstance(e, EqSlots):
            eqs.append("%s(%d)=%s(%d)" % (e.feature, e.slot_a, e.feature, e.slot_b))
        else:
            alts = []
            for d in e.deltas:
                if d == 0:
                    alts.append("%s(%d)" % (e.feature, e.daughter_slot))
                else:
                    alts.append("%s(%d) -- %d" % (e.feature, e.daughter_slot, -d))
            eqs.append("%s(0)=(%s)" % (e.feature, " | ".join(alts)))
    return "%s; %s." % (head, ", ".join(eqs))


# ---------------------------------------------------------------------------
# CNF compilation

EXPLICIT, IMPLICIT = "explicit", "implicit"


@dataclass(frozen=True)
class BinaryRule:
    mother: str
    left: str
    right: str
    prob: float
    origin: str = EXPLICIT


@dataclass(frozen=True)
class LexRule:
    mother: str
    word: str
    prob: float
    origin: str = EXPLICIT


class CnfGrammar:
    """An alias-level CNF PCFG: binary rules A -> B C and preterminal rules
    A -> word, each with a probability and an explicit/implicit origin tag.

    Rule ids are positions in the combined (binary, then lexical) rule list
    and stay stable under probability updates, which makes Viterbi tie-breaks
    and serialised fixtures reproducible.
    """

    def __init__(self, nonterminals, terminals, binary, lexical, root, categories=None):
        self.nonterminals = list(nonterminals)
        self.terminals = list(terminals)
        self.binary = list(binary)
        self.lexical = list(lexical)
        self.root = root
        self.categories = dict(categories or {})
        nts = set(self.nonterminals)
        terms = set(self.terminals)
        if root not in nts:
            raise GrammarError("root %r is not a declared nonterminal" % root)
        for r in self.binary:
            for sym in (r.mother, r.left, r.right):
                if sym not in nts:
                    raise GrammarError("rule symbol %r is not a declared nonterminal" % sym)
        for r in self.lexical:
            if r.mother not in nts:
                raise GrammarError("rule symbol %r is not a declared nonterminal" % r.mother)
            if r.word not in terms:
                raise GrammarError("word %r is not a declared terminal" % r.word)

    def rules(self):
        """Combined rule list; index order defines rule ids."""
        return self.binary + self.lexical

    def mother_totals(self):
        totals = {}
        for r in self.rules():
            totals[r.mother] = totals.get(r.mother, 0.0) + r.prob
        return totals

    def check_normalized(self, tol=1e-9):
        bad = {m: t for m, t in self.mother_totals().items() if not abs(t - 1.0) <= tol}
        if bad:
            raise GrammarError("mother distributions not normalised: %s" % sorted(bad.items()))

    def nonzero_counts(self):
        """(explicit, implicit) counts of rules with nonzero probability."""
        ne = sum(1 for r in self.rules() if r.prob > 0.0 and r.origin == EXPLICIT)
        ni = sum(1 for r in self.rules() if r.prob > 0.0 and r.origin == IMPLICIT)
        return ne, ni

    def replace_probs(self, probs):
        """New grammar with rule probabilities taken from ``probs`` (indexed
        by rule id); rule order, origins and symbol tables are preserved."""
        nb = len(self.binary)
        binary = [BinaryRule(r.mother, r.left, r.right, probs[i], r.origin)
                  for i, r in enumerate(self.binary)]
        lexical = [LexRule(r.mother, r.word, probs[nb + i], r.origin)
                   for i, r in enumerate(self.lexical)]
        return CnfGrammar(self.nonterminals, self.terminals, binary, lexical, self.root,
                          self.categories)

    def binary_rule_set(self):
        return {(r.mother, r.left, r.right) for r in self.binary}


def compile_cnf(grammar, root=None):
    """Compile a parsed Grammar into a CnfGrammar over alias names.

    Only binary PS rules are accepted.  Unspecified probabilities are filled
    with the uniform share 1/n over the mother's n rules, then every mother's
    distribution is renormalised to sum to one.  The default root is the
    mother of the first PS rule.
    """
    for r in grammar.ps_rules:
        if len(r.daughters) != 2:
            raise GrammarError(
                "PS rule %r has %d daughters; only binary rules compile to CNF"
                % (r.name, len(r.daughters)))
    if root is None:
        if not grammar.ps_rules:
            raise GrammarError("no PS rules and no explicit root given")
        root = grammar.ps_rules[0].mother
    alias_names = [a.name for a in grammar.aliases]
    if root not in alias_names:
        raise GrammarError("unknown root alias %r" % root)

    by_mother = {}  # mother -> its rules' probabilities: PS rules, then words
    for r in grammar.ps_rules:
        by_mother.setdefault(r.mother, []).append(r.prob)
    for w in grammar.words:
        by_mother.setdefault(w.preterminal, []).append(w.prob)
    totals = {m: sum(1.0 / len(ps) if p is None else p for p in ps) for m, ps in by_mother.items()}

    def share(mother, p):
        return (1.0 / len(by_mother[mother]) if p is None else p) / totals[mother]

    binary = [BinaryRule(r.mother, *r.daughters, share(r.mother, r.prob)) for r in grammar.ps_rules]
    lexical = [LexRule(w.preterminal, w.word, share(w.preterminal, w.prob)) for w in grammar.words]
    terminals = list(dict.fromkeys(w.word for w in grammar.words))
    return CnfGrammar(alias_names, terminals, binary, lexical, root,
                      {a.name: a.category for a in grammar.aliases})

