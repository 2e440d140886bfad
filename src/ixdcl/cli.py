"""Command-line interface.

Exit codes: 0 success, 2 unusable input, 3 resource cap exceeded.
Results go to stdout as JSON (or DOT for automata), diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import families
from .analysis import Analysis, CapExceeded
from .cfg import trim_cfg
from .grammar import GrammarError, grammar_from_text, sort_key
from .nfa import nfa_member
from .oracle import OracleBudget, check_productive_sample, term_language_dp
from .pipeline import PipelineCaps, run_pipeline, stages


def _load(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:   # a BOM is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GrammarError(f"cannot read {path}: {exc}")
    return grammar_from_text(text)


def _caps(args):
    return PipelineCaps(**{name: getattr(args, name)
                           for name in PipelineCaps.__slots__})


def _stages(args, n):
    """The first n stages of the pipeline on the grammar file; the later
    ones are not built."""
    return islice(stages(_load(args.grammar), _caps(args)), n)


def _emit(obj):
    """obj as JSON on stdout, with ints of any size: the limit on digits
    (from Python 3.10.7) is lifted while it dumps."""
    lift = getattr(sys, "set_int_max_str_digits", None) or (lambda n: n)
    old = getattr(sys, "get_int_max_str_digits", int)()
    lift(0)
    try:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    finally:
        lift(old)
    sys.stdout.write("\n")


def _set(xs):
    return sorted(map(str, xs))


def _nfa_dot(nfa):
    # the edges first: a closure too large to export raises CapExceeded
    # before its states are listed
    edges = sorted(nfa.transitions, key=lambda e: (e[0], str(e[1]), e[2]))
    lines = ["digraph nfa {", "  rankdir=LR;"]
    for q in range(nfa.n_states):
        shape = "doublecircle" if q in nfa.final else "circle"
        lines.append(f'  q{q} [shape={shape}];')
    for q in sorted(nfa.initial):
        lines.append(f'  start{q} [shape=point];')
        lines.append(f'  start{q} -> q{q};')
    for (s, a, t) in edges:
        label = "ε" if a is None else a.replace("\\", "\\\\").replace(
            '"', '\\"')
        lines.append(f'  q{s} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_validate(args):
    # an invalid grammar raises GrammarError in _load and exits 2
    g = _load(args.grammar)
    _emit({"valid": True, "diagnostics": [],
           "size": g.size(),
           "nonterminals": len(g.symbols.nonterminals),
           "productions": len(g.productions)})
    return 0


def cmd_analyze(args):
    analysis, = _stages(args, 1)
    uni = analysis.universe()
    _emit({
        "useful": _set(analysis.useful()),
        "empty": analysis.is_empty(),
        "universe_size": len(uni),
        "universe": [_set(X) for X in uni],
    })
    return 0


def cmd_annotate(args):
    _, ag = _stages(args, 2)
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
    analysis, _, m = _stages(args, 3)
    nn = len(analysis.g.symbols.nonterminals)
    _emit({
        "elements": len(m.elements),
        "idempotents": len(m.idempotents),
        "j_length": m.j_length(),
        "j_length_bound": (nn * nn + nn + 2) // 2 + 2,
        "depths": sorted(m.depth(x) for x in m.elements),
    })
    return 0


def cmd_summaries(args):
    *_, factory, graph = _stages(args, 5)
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
                "from": graph.ids[src], "letter": sort_key(letter),
                "to": graph.ids[tgt], "steps": steps,
            })
        out["trace"] = sorted(trace, key=lambda e: (e["from"], e["letter"]))
    _emit(out)
    return 0


def cmd_to_cfg(args):
    *_, cfg = _stages(args, 6)
    trimmed = trim_cfg(cfg)
    _emit({
        "triples": len(cfg.nonterminals),
        "rules": cfg.n_rules(),
        "trimmed_triples": len(trimmed.nonterminals),
        "trimmed_rules": trimmed.n_rules(),
    })
    return 0


def cmd_dcl_nfa(args):
    g = _load(args.grammar)
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
                          max_stack_height=args.height)
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


def count(text):
    """A size or cap: an int that is not negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def build_parser():
    top = argparse.ArgumentParser(
        prog="ixdcl",
        description="Regular downward closures of indexed languages.")
    defaults = PipelineCaps()
    for name in PipelineCaps.__slots__:
        top.add_argument("--" + name.replace("_", "-"), type=count,
                         default=getattr(defaults, name))
    top.add_argument("--max-dfa-states", type=count, default=100000)
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
    grammar_cmd("dcl-nfa", cmd_dcl_nfa)
    p = grammar_cmd("compare", cmd_compare)
    p.add_argument("other")
    p.add_argument("--mode", choices=["subset", "equal"], default="equal")
    p = grammar_cmd("member", cmd_member)
    p.add_argument("word")
    p = grammar_cmd("oracle", cmd_oracle)
    p.add_argument("--len", type=count, default=16)
    p.add_argument("--height", type=count, default=8)
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
