"""End-to-end pipeline: indexed grammar -> downward-closure NFA.

Stages: productiveness analysis, annotation, stack monoid, summary
graph, context-free cover, downward-closure NFA.  The closure reads the
cover untrimmed.  Each stage has a configurable cap; hitting one raises
CapExceeded with a message naming the cap, and the statistics of the
stages that finished are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import Analysis, CapExceeded
from .annotate import build_annotated
from .cfg import build_cfg
from .monoid import StackMonoid
from .nfa import cfg_dcl_nfa
# Not called: the closure NFA is subword-closed, and the closure reads the
# cover untrimmed; perfbench/spans.py rebinds both.
from .cfg import trim_cfg  # noqa: F401
from .nfa import dcl_close  # noqa: F401
from .summaries import SummaryFactory, build_summary_graph


@dataclass
class PipelineCaps:
    max_universe: int = 4096
    max_monoid: int = 4096
    max_summaries: int = 4096
    max_triples: int = 100000


@dataclass
class PipelineResult:
    grammar: object
    analysis: Analysis
    annotated: object
    monoid: StackMonoid
    graph: object
    cfg: object
    nfa: object
    stats: dict = field(default_factory=dict)


def run_pipeline(g, caps=None):
    """Run every stage on a desugared, push-labeled grammar."""
    caps = caps or PipelineCaps()
    analysis = Analysis(g, universe_cap=caps.max_universe)
    universe = analysis.universe()
    ag = build_annotated(g, analysis)
    monoid = StackMonoid(analysis, ag.letters, cap=caps.max_monoid)
    factory = SummaryFactory(monoid)
    graph = build_summary_graph(factory, ag.letters, cap=caps.max_summaries)
    cfg = build_cfg(ag, graph)
    if len(cfg.nonterminals) > caps.max_triples:
        raise CapExceeded("cfg triple cap exceeded")
    nfa = cfg_dcl_nfa(cfg)
    stats = {
        "grammar_size": g.size(),
        "nonterminals": len(g.symbols.nonterminals),
        "productions": len(g.productions),
        "useful": len(analysis.useful()),
        "universe": len(universe),
        "annotated_nonterminals": len(ag.grammar.symbols.nonterminals),
        "annotated_rules": len(ag.grammar.productions),
        "letters": len(ag.letters),
        "monoid_elements": len(monoid.elements),
        "monoid_j_length": monoid.j_length(),
        "summary_nodes": len(graph.nodes),
        "max_summary_size": max((s.size for s in graph.nodes), default=0),
        "cfg_triples": len(cfg.nonterminals),
        "cfg_rules": len(cfg.rules),
        "nfa_states": nfa.n_states,
        "nfa_transitions": len(nfa.transitions),
    }
    return PipelineResult(g, analysis, ag, monoid, graph, cfg, nfa, stats)
