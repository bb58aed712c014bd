import pytest

from xpcfg import fixtures
from xpcfg.constraints import build_implicit_grammar, enumerate_implicit
from xpcfg.grammar import compile_cnf, parse_grammar


@pytest.fixture(scope="session")
def xbar():
    return parse_grammar(fixtures.xbar_text())


@pytest.fixture(scope="session")
def xbar_cnf(xbar):
    return compile_cnf(xbar, root="V2")


@pytest.fixture(scope="session")
def xbar_implicit_rules(xbar, xbar_cnf):
    return enumerate_implicit(xbar_cnf, xbar.constraints)


@pytest.fixture(scope="session")
def xbar_implicit(xbar_cnf, xbar_implicit_rules):
    return build_implicit_grammar(xbar_cnf, xbar_implicit_rules, floor=0.01)


@pytest.fixture(scope="session")
def sentence14():
    return "passionately with the sheep the cat chases the ball with the boy so slowly".split()


@pytest.fixture(scope="session")
def mixed_corpus(sentence14):
    """Repeated sentences of three lengths (5, 2 and 14 words), one with a
    token outside the vocabulary and one with no parse."""
    five, other = "the cat chases the ball".split(), "the ball chases the cat".split()
    return [five, "chases chases".split(), sentence14, "the dog".split(), five, other,
            sentence14, "chases chases".split(), "the dog".split()]
