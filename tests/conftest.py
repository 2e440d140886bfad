"""Shared fixtures: the three fixture grammars and their pipeline stages.

Expensive stages (notably the square-example pipeline) are computed once
per session and shared read-only across test modules.

The hypothesis profile named by HYPOTHESIS_PROFILE is loaded; the `ci`
profile derandomizes, so that every CI run checks the same examples.
"""

import os

import pytest
from hypothesis import settings

from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.pipeline import run_pipeline, stages

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class Stages:
    """All pipeline stages of one grammar, as `stages` builds them."""

    def __init__(self, grammar):
        self.grammar = grammar
        (self.analysis, self.annotated, self.monoid, self.factory,
         self.graph, self.cfg, self.nfa) = stages(grammar)


@pytest.fixture(scope="session")
def g1():
    return Stages(g1_grammar())


@pytest.fixture(scope="session")
def loop():
    return Stages(g_loop_grammar())


@pytest.fixture(scope="session")
def square():
    return Stages(square_grammar())


@pytest.fixture(scope="session")
def fixtures(g1, loop, square):
    return {"g1": g1, "loop": loop, "square": square}


@pytest.fixture(scope="session")
def gn_nfas():
    """The closure NFAs of the lower-bound grammars G_1 and G_2."""
    return {n: run_pipeline(grammar_gn(n)).nfa for n in (1, 2)}
