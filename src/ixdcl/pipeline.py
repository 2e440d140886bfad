"""End-to-end pipeline: indexed grammar -> downward closure.

Stages: productiveness analysis, annotation, stack monoid, summary
graph, context-free cover, closure.  `stages` is the one place they are
built: it yields them in that order, each under its cap, so
`run_pipeline`, every CLI command, the test fixtures and the scripts
run the same code.  A command that reports one stage reads the prefix
of `stages` up to it and stops there.  The cover is trim as built, so
the closure reads it as it is and yields the antichain of ideals in
`Nfa.ideals`; the NFA's edges are unfolded only when they are read, so
the statistics, the longest word and membership are computed from the
ideals even when the export would pass `CLOSURE_STATE_CAP` (G_3).  Each
stage has a configurable cap; hitting one raises CapExceeded with a
message naming the cap, and the statistics of the stages that finished
are not kept.
"""

from __future__ import annotations

# CapExceeded is raised by the stages and re-exported for callers.
from .analysis import Analysis, CapExceeded  # noqa: F401
from .annotate import build_annotated
from .cfg import build_cfg
from .grammar import Record
from .monoid import StackMonoid
from .nfa import cfg_dcl_nfa, longest_word_or_infinite
# Not called: the closure NFA is subword-closed, and the cover is trim as
# built; perfbench/spans.py rebinds both.
from .cfg import trim_cfg  # noqa: F401
from .nfa import dcl_close  # noqa: F401
from .summaries import SummaryFactory, build_summary_graph


class PipelineCaps(Record):
    __slots__ = ("max_universe", "max_monoid", "max_summaries", "max_triples")

    def __init__(self, max_universe=4096, max_monoid=4096, max_summaries=4096,
                 max_triples=100000):
        self.max_universe = max_universe
        self.max_monoid = max_monoid
        self.max_summaries = max_summaries
        self.max_triples = max_triples


class PipelineResult(Record):
    __slots__ = ("grammar", "analysis", "annotated", "monoid", "graph", "cfg",
                 "nfa", "stats")

    def __init__(self, grammar, analysis, annotated, monoid, graph, cfg, nfa,
                 stats=None):
        self.grammar = grammar
        self.analysis = analysis
        self.annotated = annotated
        self.monoid = monoid
        self.graph = graph
        self.cfg = cfg
        self.nfa = nfa
        self.stats = {} if stats is None else stats


def stages(g, caps=None):
    """Yield the stages of a desugared, push-labeled grammar in order:
    the analysis with its universe solved, the annotated grammar, the
    stack monoid, the summary factory, the summary graph, the cover and
    the closure NFA.  Each is built under its cap when it is read, from
    the stage names as module globals then (perfbench/spans.py rebinds
    them)."""
    caps = caps or PipelineCaps()
    analysis = Analysis(g, universe_cap=caps.max_universe)
    analysis.universe()
    yield analysis
    ag = build_annotated(g, analysis)
    yield ag
    monoid = StackMonoid(analysis, ag.letters, cap=caps.max_monoid)
    yield monoid
    factory = SummaryFactory(monoid)
    yield factory
    graph = build_summary_graph(factory, ag.letters, cap=caps.max_summaries)
    yield graph
    cfg = build_cfg(ag, graph, cap=caps.max_triples)
    yield cfg
    yield cfg_dcl_nfa(cfg)


def run_pipeline(g, caps=None):
    """Run every stage on a desugared, push-labeled grammar."""
    analysis, ag, monoid, _, graph, cfg, nfa = stages(g, caps)
    stats = {
        "grammar_size": g.size(),
        "nonterminals": len(g.symbols.nonterminals),
        "productions": len(g.productions),
        "useful": len(analysis.useful()),
        "universe": len(analysis.universe()),
        # the solver's keys by kind; every cl key, an action's included,
        # counts against max_universe
        "cl_keys": analysis.cl_keys,
        "efoc_keys": analysis.keys("efoc"),
        "annotated_nonterminals": len(ag.grammar.symbols.nonterminals),
        "annotated_rules": len(ag.grammar.productions),
        "letters": len(ag.letters),
        "monoid_elements": len(monoid.elements),
        "monoid_j_length": monoid.j_length(),
        "summary_nodes": len(graph.nodes),
        "max_summary_size": max((s.size for s in graph.nodes), default=0),
        "cfg_triples": len(cfg.nonterminals),
        "cfg_rules": cfg.n_rules(),
        "nfa_states": nfa.n_states,
        # read from the ideals: len() cannot return G_3's count
        "nfa_transitions": nfa.transitions.size,
        "longest_word": longest_word_or_infinite(nfa),
    }
    return PipelineResult(g, analysis, ag, monoid, graph, cfg, nfa, stats)
