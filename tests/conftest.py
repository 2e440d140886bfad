"""Shared fixtures: the three fixture grammars and their pipeline stages.

Expensive stages (notably the square-example pipeline) are computed once
per session and shared read-only across test modules.

The hypothesis profile named by HYPOTHESIS_PROFILE is loaded; the `ci`
profile derandomizes, so that every CI run checks the same examples.
"""

import os

import pytest
from hypothesis import settings

from ixdcl.analysis import Analysis
from ixdcl.annotate import build_annotated
from ixdcl.cfg import build_cfg, trim_cfg
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.monoid import StackMonoid
from ixdcl.nfa import cfg_dcl_nfa
from ixdcl.pipeline import run_pipeline
from ixdcl.summaries import SummaryFactory, build_summary_graph

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class Stages:
    """All pipeline stages of one grammar, computed lazily."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.analysis = Analysis(grammar)
        self.annotated = build_annotated(grammar, self.analysis)
        self.monoid = StackMonoid(self.analysis, self.annotated.letters)
        self.factory = SummaryFactory(self.monoid)
        self.graph = build_summary_graph(self.factory, self.annotated.letters)
        self.cfg = build_cfg(self.annotated, self.graph)
        self.cfg_trimmed = trim_cfg(self.cfg)
        self.nfa = cfg_dcl_nfa(self.cfg)


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
