"""Grammar texts for the benchmark workloads, and the seeded generator
behind the `random` workload.

The generator draws small sugared indexed grammars: at most five
nonterminals, at most two stack symbols, general right-hand sides, pop
rules with general right-hand sides, and check rules over small DFAs.
Every nonterminal gets at least one rule, because a nonterminal that
appears only on a right-hand side is undeclared in the text format and
makes the grammar a `GrammarError`.

A draw is a structure over abstract symbols; `render` names the symbols
and writes the text.  The program only ever sees that text.
"""

from __future__ import annotations

import random

NT_POOL = tuple("SABCDEFGHJKLMNQRTUVXYZ")
STACK_POOL = tuple("fghijklmnopqrstuvwxyz")


def draw_grammar(rng):
    """One random grammar as a structure; symbols are small integers.

    Nonterminal 0 is the start symbol.  Rules are tuples:
    ("plain", lhs, rhs), ("push", lhs, target, sym),
    ("pop", lhs, sym, rhs) and ("check", lhs, target, dfa indices);
    a right-hand side is a tuple of ("t", i) and ("n", i) items.
    A DFA is (n_states, finals, transitions) over stack symbols.
    """
    n_nt = rng.randint(2, 5)
    n_stack = rng.randint(1, 2)
    n_dfa = rng.randint(0, 2)

    def rhs(lo, hi):
        return tuple(rng.choice((("t", rng.randrange(2)),
                                 ("n", rng.randrange(n_nt))))
                     for _ in range(rng.randint(lo, hi)))

    rules = []
    for lhs in range(n_nt):
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.35:
                rules.append(("plain", lhs, rhs(0, 3)))
            elif kind < 0.6:
                rules.append(("push", lhs, rng.randrange(n_nt),
                              rng.randrange(n_stack)))
            elif kind < 0.85 or not n_dfa:
                rules.append(("pop", lhs, rng.randrange(n_stack), rhs(0, 2)))
            else:
                k = rng.randint(1, n_dfa)
                rules.append(("check", lhs, rng.randrange(n_nt),
                              tuple(sorted(rng.sample(range(n_dfa), k)))))
    dfas = []
    for _ in range(n_dfa):
        n_states = rng.randint(1, 2)
        trans = tuple((p, x, rng.randrange(n_states))
                      for p in range(n_states) for x in range(n_stack)
                      if rng.random() < 0.7)
        finals = tuple(q for q in range(n_states) if rng.random() < 0.6)
        dfas.append((n_states, finals or (n_states - 1,), trans))
    return {"nts": n_nt, "stack": n_stack, "rules": rules, "dfas": dfas}


def render(draw, rng):
    """The grammar text of a draw.

    Nonterminal and stack symbol names are drawn from the pools and the
    rules are shuffled; the grammar is the same up to renaming, so its
    closure is the same and the pipeline does the same amount of work.
    The terminals are always a and b.
    """
    terms = ("a", "b")
    nts = tuple(rng.sample(NT_POOL, draw["nts"]))
    stack = tuple(rng.sample(STACK_POOL, draw["stack"]))
    rules = list(draw["rules"])
    rng.shuffle(rules)

    def words(items):
        if not items:
            return '""'
        return " ".join(terms[i] if k == "t" else nts[i] for k, i in items)

    lines = [f"start {nts[0]}", "terminals " + " ".join(terms),
             "stack " + " ".join(stack)]
    for rule in rules:
        kind, lhs = rule[0], nts[rule[1]]
        if kind == "plain":
            lines.append(f"{lhs} -> {words(rule[2])}")
        elif kind == "push":
            lines.append(f"{lhs} -> {nts[rule[2]]} + {stack[rule[3]]}")
        elif kind == "pop":
            lines.append(f"{lhs} - {stack[rule[2]]} -> {words(rule[3])}")
        else:
            names = " ".join(f"K{d}" for d in rule[3])
            lines.append(f"{lhs} -> {nts[rule[2]]} check {names}")
    for d, (n_states, finals, trans) in enumerate(draw["dfas"]):
        parts = ["states " + " ".join(f"q{q}" for q in range(n_states)),
                 "init q0", "final " + " ".join(f"q{q}" for q in finals)]
        parts += [f"q{p} {stack[x]} q{q}" for (p, x, q) in trans]
        lines.append(f"dfa K{d} {{ " + "; ".join(parts) + "; }")
    return "\n".join(lines) + "\n"
