"""Command-line interface.

Exit codes: 0 success, 2 unusable input, 3 resource cap exceeded.
Results go to stdout as JSON (or DOT for automata), diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families
from .analysis import Analysis, CapExceeded
from .annotate import build_annotated, check_productive_sample
from .cfg import trim_cfg
from .grammar import (GrammarError, desugar, label_pushes, parse_grammar,
                      print_grammar, validate)
from .monoid import StackMonoid
from .nfa import Nfa, nfa_member
from .oracle import OracleBudget, term_language_dp
from .pipeline import PipelineCaps, run_pipeline
from .summaries import SummaryFactory, build_summary_graph


def _load(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GrammarError(f"cannot read {path}: {exc}")
    g = label_pushes(desugar(parse_grammar(text)))
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    return g


def _caps(args):
    return PipelineCaps(
        max_universe=args.max_universe,
        max_monoid=args.max_monoid,
        max_summaries=args.max_summaries,
        max_triples=args.max_triples,
    )


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _set(xs):
    return sorted(map(str, xs))


def _nfa_dot(nfa):
    lines = ["digraph nfa {", "  rankdir=LR;"]
    for q in range(nfa.n_states):
        shape = "doublecircle" if q in nfa.final else "circle"
        lines.append(f'  q{q} [shape={shape}];')
    for q in sorted(nfa.initial):
        lines.append(f'  start{q} [shape=point];')
        lines.append(f'  start{q} -> q{q};')
    for (s, a, t) in sorted(nfa.transitions,
                            key=lambda e: (e[0], str(e[1]), e[2])):
        label = a if a is not None else "ε"
        lines.append(f'  q{s} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_validate(args):
    try:
        with open(args.grammar) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        g = label_pushes(desugar(parse_grammar(text)))
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate(g)
    _emit({"valid": not problems, "diagnostics": problems,
           "size": g.size(),
           "nonterminals": len(g.symbols.nonterminals),
           "productions": len(g.productions)})
    return 0 if not problems else 2


def cmd_analyze(args):
    g = _load(args.grammar)
    analysis = Analysis(g, universe_cap=args.max_universe)
    uni = analysis.universe()
    _emit({
        "useful": _set(analysis.useful()),
        "empty": analysis.is_empty(),
        "universe_size": len(uni),
        "universe": [_set(X) for X in uni],
    })
    return 0


def cmd_annotate(args):
    g = _load(args.grammar)
    analysis = Analysis(g, universe_cap=args.max_universe)
    ag = build_annotated(g, analysis)
    report = check_productive_sample(ag, seed=args.seed)
    _emit({
        "nonterminals": len(ag.grammar.symbols.nonterminals),
        "rules": len(ag.grammar.productions),
        "letters": len(ag.letters),
        "productive_sample": {
            "samples": report["samples"],
            "terms_checked": report["terms_checked"],
            "violations": len(report["violations"]),
        },
    })
    return 0


def cmd_monoid(args):
    g = _load(args.grammar)
    analysis = Analysis(g, universe_cap=args.max_universe)
    ag = build_annotated(g, analysis)
    m = StackMonoid(analysis, ag.letters, cap=args.max_monoid)
    nn = len(g.symbols.nonterminals)
    _emit({
        "elements": len(m.elements),
        "idempotents": len(m.idempotents()),
        "j_length": m.j_length(),
        "j_length_bound": (nn * nn + nn + 2) // 2 + 2,
        "depths": sorted(m.depth(x) for x in m.elements),
    })
    return 0


def cmd_summaries(args):
    g = _load(args.grammar)
    analysis = Analysis(g, universe_cap=args.max_universe)
    ag = build_annotated(g, analysis)
    m = StackMonoid(analysis, ag.letters, cap=args.max_monoid)
    factory = SummaryFactory(m)
    graph = build_summary_graph(factory, ag.letters, cap=args.max_summaries)
    out = {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "max_size": max((s.size for s in graph.nodes), default=0),
        "sizes": [s.size for s in graph.nodes],
    }
    if args.trace:
        trace = []
        for (src, letter), tgt in graph.edges.items():
            steps = []
            factory.push_letter(letter, src, trace=steps)
            trace.append({
                "from": graph.ids[src], "letter": str(letter),
                "to": graph.ids[tgt], "steps": steps,
            })
        out["trace"] = sorted(trace, key=lambda e: (e["from"], e["letter"]))
    _emit(out)
    return 0


def cmd_to_cfg(args):
    g = _load(args.grammar)
    cfg = run_pipeline(g, _caps(args)).cfg
    trimmed = trim_cfg(cfg)
    _emit({
        "triples": len(cfg.nonterminals),
        "rules": len(cfg.rules),
        "trimmed_triples": len(trimmed.nonterminals),
        "trimmed_rules": len(trimmed.rules),
    })
    return 0


def cmd_dcl_nfa(args):
    g = _load(args.grammar)
    if args.empty_check:
        analysis = Analysis(g, universe_cap=args.max_universe)
        if analysis.is_empty():
            nfa = Nfa(frozenset(g.symbols.terminals))
            nfa.initial = {nfa.add_state()}
            if args.format == "dot":
                sys.stdout.write(_nfa_dot(nfa))
            else:
                out = nfa.to_dict()
                out["note"] = "empty language short-circuit"
                _emit(out)
            return 0
    result = run_pipeline(g, _caps(args))
    if args.format == "dot":
        sys.stdout.write(_nfa_dot(result.nfa))
    else:
        _emit(result.nfa.to_dict())
    return 0


def cmd_compare(args):
    from .nfa import nfa_equivalence, nfa_inclusion
    n1 = run_pipeline(_load(args.grammar), _caps(args)).nfa
    n2 = run_pipeline(_load(args.other), _caps(args)).nfa
    if args.mode == "subset":
        ok, cex = nfa_inclusion(n1, n2, cap=args.max_dfa_states)
    else:
        ok, cex = nfa_equivalence(n1, n2, cap=args.max_dfa_states)
    _emit({"mode": args.mode, "holds": ok, "counterexample": cex})
    return 0


def cmd_member(args):
    g = _load(args.grammar)
    result = run_pipeline(g, _caps(args))
    word = "" if args.word == '""' else args.word
    _emit({"word": word, "member": nfa_member(result.nfa, word)})
    return 0


def cmd_oracle(args):
    g = _load(args.grammar)
    analysis = Analysis(g, universe_cap=args.max_universe)
    budget = OracleBudget(max_word_len=args.len,
                          max_stack_height=args.height,
                          max_steps=args.steps)
    res = term_language_dp(g, budget, emptiness=analysis.term_empty)
    _emit({"words": sorted(res.table[(g.start, ())]),
           "complete": res.complete})
    return 0


def cmd_gen(args):
    if args.family == "gn":
        sys.stdout.write(families.grammar_gn_text(args.n))
    elif args.family == "square":
        sys.stdout.write(families.SQUARE_TEXT)
    elif args.family == "loop":
        sys.stdout.write(families.G_LOOP_TEXT)
    elif args.family == "g1":
        sys.stdout.write(families.G1_TEXT)
    return 0


def cmd_stats(args):
    g = _load(args.grammar)
    result = run_pipeline(g, _caps(args))
    _emit(result.stats)
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="ixdcl",
        description="Regular downward closures of indexed languages.")
    top.add_argument("--max-universe", type=int, default=4096)
    top.add_argument("--max-monoid", type=int, default=4096)
    top.add_argument("--max-summaries", type=int, default=4096)
    top.add_argument("--max-triples", type=int, default=100000)
    top.add_argument("--max-dfa-states", type=int, default=100000)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--format", choices=["json", "dot"], default="json")
    sub = top.add_subparsers(dest="command", required=True)

    def grammar_cmd(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("grammar")
        p.set_defaults(fn=fn)
        return p

    grammar_cmd("validate", cmd_validate)
    grammar_cmd("analyze", cmd_analyze)
    grammar_cmd("annotate", cmd_annotate)
    grammar_cmd("monoid", cmd_monoid)
    p = grammar_cmd("summaries", cmd_summaries)
    p.add_argument("--trace", action="store_true")
    grammar_cmd("to-cfg", cmd_to_cfg)
    p = grammar_cmd("dcl-nfa", cmd_dcl_nfa)
    p.add_argument("--empty-check", action="store_true")
    p = grammar_cmd("compare", cmd_compare)
    p.add_argument("other")
    p.add_argument("--mode", choices=["subset", "equal"], default="equal")
    p = grammar_cmd("member", cmd_member)
    p.add_argument("word")
    p = grammar_cmd("oracle", cmd_oracle)
    p.add_argument("--len", type=int, default=16)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--steps", type=int, default=100000)
    p = sub.add_parser("gen")
    p.set_defaults(fn=cmd_gen)
    p.add_argument("family", choices=["gn", "square", "loop", "g1"])
    p.add_argument("n", type=int, nargs="?", default=1)
    grammar_cmd("stats", cmd_stats)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
