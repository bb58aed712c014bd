"""Metagrammatical constraints and implicit-rule enumeration.

A constraint pairs a three-slot category pattern (mother, daughter 1,
daughter 2) with feature-binding equations.  Constraints act as filters on
candidate CNF rules over the alias set:

* A constraint whose pattern does not apply to a candidate does not block it.
* When the pattern applies, every equation must hold.  Equations that bind a
  mother feature to a daughter feature form the head group and are satisfied
  if some choice of head daughter makes all of them true at once; equations
  stated over fixed daughter positions are checked positionally.

Implicit-rule enumeration additionally restricts which categories may head a
rule at all (a mother must match some constraint's non-empty mother pattern)
and, in grammars that restrict preterminal introduction, requires the second
daughter of every implicit rule to be phrasal (a declared BAR level of at
least 1): new preterminal-level material attaches in first position only,
while explicitly written rules remain free to introduce preterminals on
either side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grammar import (
    EQ,
    IMPLICIT,
    NEQ,
    PRESENT,
    BinaryRule,
    CnfGrammar,
    EqBarLevel,
    EqConst,
    EqSlots,
    GrammarError,
    LexRule,
    parse_grammar,
)


@dataclass(frozen=True)
class RuleCandidate:
    """A candidate binary rule (mother -> d1 d2) over alias names."""

    mother: str
    d1: str
    d2: str


def parse_constraint(text, grammar):
    """Parse a single 'CONSTRAINT name : pattern ; equations.' declaration.

    The feature declarations of ``grammar`` scope the pattern and equations.
    """
    decl_text = text.strip()
    if not decl_text.upper().startswith("CONSTRAINT"):
        decl_text = "CONSTRAINT " + decl_text
    feature_src = "\n".join(
        "FEATURE %s{%s}" % (f.name, ", ".join(f.values)) for f in grammar.features
    )
    parsed = parse_grammar(feature_src + "\n" + decl_text)
    if len(parsed.constraints) != 1:
        raise GrammarError("expected exactly one constraint declaration")
    return parsed.constraints[0]


def _test_holds(test, category):
    v = category.get(test.feature)
    if test.kind == PRESENT:
        return v is not None
    if test.kind == EQ:
        return v == test.value
    if test.kind == NEQ:
        return v is not None and v != test.value
    raise ValueError(test.kind)


def _pattern_applies(constraint, cats):
    return all(
        all(_test_holds(t, cats[slot]) for t in pat.tests)
        for slot, pat in enumerate(constraint.pattern)
    )


def _numeric(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _eq_holds(eq, cats, head=None):
    """Evaluate one equation; ``head`` remaps the daughter slot of head-group
    equations.  Comparisons against absent features fail."""
    if isinstance(eq, EqConst):
        return cats[eq.slot].get(eq.feature) == eq.value
    if isinstance(eq, EqSlots):
        a, b = eq.slot_a, eq.slot_b
        if head is not None:
            a = a if a == 0 else head
            b = b if b == 0 else head
        va, vb = cats[a].get(eq.feature), cats[b].get(eq.feature)
        return va is not None and va == vb
    if isinstance(eq, EqBarLevel):
        d = head if head is not None else eq.daughter_slot
        vm = _numeric(cats[0].get(eq.feature))
        vd = _numeric(cats[d].get(eq.feature))
        if vm is None or vd is None:
            return False
        return any(vd == vm + delta for delta in eq.deltas)
    raise ValueError(eq)


def _split_equations(constraint):
    """Equations binding the mother to a daughter form the head group."""
    head_group, positional = [], []
    for eq in constraint.equations:
        if isinstance(eq, EqBarLevel):
            head_group.append(eq)
        elif isinstance(eq, EqSlots) and 0 in (eq.slot_a, eq.slot_b):
            head_group.append(eq)
        else:
            positional.append(eq)
    return head_group, positional


def satisfies(candidate, constraint, categories):
    """True iff the candidate rule is not blocked by the constraint.

    ``categories`` maps alias names to their feature bundles.  A constraint
    whose pattern does not apply returns True; an applicable constraint holds
    when its positional equations hold and some choice of head daughter makes
    the whole head group hold.
    """
    cats = (categories[candidate.mother], categories[candidate.d1], categories[candidate.d2])
    if not _pattern_applies(constraint, cats):
        return True
    head_group, positional = _split_equations(constraint)
    if not all(_eq_holds(eq, cats) for eq in positional):
        return False
    if not head_group:
        return True
    return any(
        all(_eq_holds(eq, cats, head=h) for eq in head_group) for h in (1, 2)
    )


def _licensed_mothers(constraints, aliases, categories):
    """Aliases matching at least one constraint's non-empty mother pattern.

    Constraints with an unconstrained mother slot license nothing by
    themselves; with no mother-constraining constraint at all the filter is
    inactive and every alias may head a rule.
    """
    mother_patterns = [c.pattern[0] for c in constraints if not c.pattern[0].is_empty()]
    if not mother_patterns:
        return list(aliases)
    return [
        a for a in aliases
        if any(all(_test_holds(t, categories[a]) for t in pat.tests) for pat in mother_patterns)
    ]


def _is_phrasal(category):
    bar = _numeric(category.get("BAR"))
    return bar is not None and bar >= 1


def enumerate_implicit(cnf, constraints):
    """All rule candidates over the grammar's nonterminals licensed by the
    constraints but absent from the explicit grammar, in lexicographic
    (mother, d1, d2) order.

    The second daughter must be phrasal exactly when some constraint
    restricts preterminal introduction (see module docstring).
    """
    aliases, categories = sorted(cnf.nonterminals), cnf.categories
    explicit = cnf.binary_rule_set()
    phrasal_second = any(c.restricts_preterminal_introduction() for c in constraints)

    mothers = sorted(_licensed_mothers(constraints, aliases, categories))
    second = [a for a in aliases if not phrasal_second or _is_phrasal(categories[a])]

    out = []
    for m in mothers:
        for d1 in aliases:
            for d2 in second:
                if (m, d1, d2) in explicit:
                    continue
                cand = RuleCandidate(m, d1, d2)
                if all(satisfies(cand, c, categories) for c in constraints):
                    out.append(cand)
    return out


def build_implicit_grammar(cnf, implicit, floor, init="deterministic", seed=None):
    """Extend a compiled grammar with implicit rules at a floor probability.

    In deterministic mode every implicit rule gets exactly ``floor``; in
    seeded-random mode the floor is perturbed multiplicatively by uniform
    noise in [0.5, 1.5].  Existing rules are rescaled proportionally so each
    mother's distribution still sums to one.
    """
    if not floor > 0.0:  # NaN fails too
        raise GrammarError("floor probability must be positive")
    if init not in ("deterministic", "seeded-random"):
        raise GrammarError("init must be 'deterministic' or 'seeded-random'")
    rng = random.Random(seed) if init == "seeded-random" else None

    new_rules = []
    implicit_mass = {}
    for cand in implicit:
        p = floor if rng is None else floor * rng.uniform(0.5, 1.5)
        new_rules.append(BinaryRule(cand.mother, cand.d1, cand.d2, p, IMPLICIT))
        implicit_mass[cand.mother] = implicit_mass.get(cand.mother, 0.0) + p

    for mother, mass in implicit_mass.items():
        if not mass < 1.0:
            raise GrammarError(
                "implicit floor mass %.4f for mother %r leaves no probability for "
                "explicit rules" % (mass, mother))

    def rescale(rule):
        keep = 1.0 - implicit_mass.get(rule.mother, 0.0)
        return rule.prob * keep

    binary = [BinaryRule(r.mother, r.left, r.right, rescale(r), r.origin) for r in cnf.binary]
    binary.extend(new_rules)
    lexical = [LexRule(r.mother, r.word, rescale(r), r.origin) for r in cnf.lexical]
    return CnfGrammar(cnf.nonterminals, cnf.terminals, binary, lexical, cnf.root, cnf.categories)
