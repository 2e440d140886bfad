"""A structural check of grammars in normal form.

`grammar_from_text` returns only grammars that pass this check; the
tests also apply it to the grammars that later stages build (the
annotated grammar) and to grammars assembled by hand.
"""

from ixdcl.grammar import BinaryRule, PopRule, PushRule, TerminalRule


def validate(g):
    """Return a list of human-readable diagnostics (empty when valid)."""
    out = []
    syms = g.symbols
    for name, group in [("nonterminal", syms.nonterminals),
                        ("terminal", syms.terminals),
                        ("stack symbol", syms.stack_symbols)]:
        for s in group:
            if isinstance(s, str) and (not s or any(c.isspace() for c in s)):
                out.append(f"bad {name} identifier {s!r}")
    if syms.nonterminals & syms.terminals:
        out.append("nonterminals and terminals overlap")
    if syms.nonterminals & syms.stack_symbols:
        out.append("nonterminals and stack symbols overlap")
    if syms.terminals & syms.stack_symbols:
        out.append("terminals and stack symbols overlap")
    if g.start not in syms.nonterminals:
        out.append(f"start symbol {g.start!r} is not a nonterminal")
    for t in syms.terminals:
        if isinstance(t, str) and len(t) != 1:
            out.append(f"terminal {t!r} is not a single character")

    def chk_nt(s, p):
        if s not in syms.nonterminals:
            out.append(f"undeclared nonterminal {s!r} in {p!r}")

    def chk_sym(s, p):
        if s not in syms.stack_symbols:
            out.append(f"undeclared stack symbol {s!r} in {p!r}")

    for p in g.productions:
        if isinstance(p, TerminalRule):
            chk_nt(p.lhs, p)
            for c in p.word:
                if c not in syms.terminals:
                    out.append(f"undeclared terminal {c!r} in {p!r}")
        elif isinstance(p, BinaryRule):
            chk_nt(p.lhs, p)
            chk_nt(p.left, p)
            chk_nt(p.right, p)
        elif isinstance(p, PushRule):
            chk_nt(p.lhs, p)
            chk_nt(p.rhs, p)
            chk_sym(p.sym, p)
        elif isinstance(p, PopRule):
            chk_nt(p.lhs, p)
            chk_nt(p.rhs, p)
            chk_sym(p.sym, p)
        else:
            out.append(f"production {p!r} is not in normal form")

    if g.push_labels:
        pushes_of = {}
        for p in g.productions:
            if isinstance(p, PushRule):
                pushes_of.setdefault(p.sym, []).append(p)
        for f in syms.stack_symbols:
            ps = pushes_of.get(f, [])
            if len(ps) != 1:
                out.append(f"stack symbol {f!r} has {len(ps)} push rules")
            elif f not in g.push_labels or \
                    g.push_labels[f] != (ps[0].lhs, ps[0].rhs):
                out.append(f"push label of {f!r} disagrees with its push rule")
    return out
