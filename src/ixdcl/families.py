"""Benchmark grammar families and small fixtures.

The lower-bound family G_n couples n two-state counter DFAs so that the
unique stack content passing all checks is the binary counting sequence
of length 2^n - 1, and the generated word (if any) has doubly
exponential length: L(G_1) = { a^16 }.
"""

from __future__ import annotations

from .grammar import CheckDfa, grammar_from_text

G1_TEXT = """\
start S
terminals a b
stack f
S -> A + f
A - f -> B
B -> "ab"
"""

G_LOOP_TEXT = """\
start S
terminals a
stack f
S -> S + f
S -> A
A - f -> A
A -> "a"
"""

SQUARE_TEXT = """\
start S
terminals a b
stack f g
S -> T + g
T -> T + f
T -> A
A - g -> ""
A - f -> C
C -> a A B
B - f -> b b B
B - g -> b
"""


def g1_grammar():
    return grammar_from_text(G1_TEXT)


def g_loop_grammar():
    return grammar_from_text(G_LOOP_TEXT)


def square_grammar():
    return grammar_from_text(SQUARE_TEXT)


# ---------------------------------------------------------------------------
# counter DFAs


def counter_letters(n):
    return [f"inc{i}" for i in range(1, n + 1)]


def counter_dfas(n):
    """n two-state DFAs over inc_1..inc_n whose intersection is the single
    binary counting word of length 2^n - 1.

    Automaton i flips its bit on inc_i, ignores inc_j for j < i, and
    blocks inc_j for j > i unless the bit is set (in which case it
    resets).
    """
    sigma = counter_letters(n)
    out = []
    for i in range(1, n + 1):
        zero, one = f"z{i}", f"o{i}"
        trans = []
        for j, a in enumerate(sigma, start=1):
            if j < i:
                trans.append((zero, a, zero))
                trans.append((one, a, one))
            elif j == i:
                trans.append((zero, a, one))
            else:
                trans.append((one, a, zero))
        out.append(CheckDfa(f"A{i}", (zero, one), zero, frozenset([one]),
                            tuple(trans)))
    return out


def hashed_counter_dfas(n):
    """The counter DFAs followed by a fresh end letter, so the unique
    intersection word has length exactly 2^n."""
    out = []
    for dfa in counter_dfas(n):
        end = f"e{dfa.name}"
        trans = list(dfa.transitions)
        for q in dfa.finals:
            trans.append((q, "end", end))
        out.append(CheckDfa(dfa.name, dfa.states + (end,), dfa.init,
                            frozenset([end]), tuple(trans)))
    return out


def bottom_marked_dfas(n):
    """Versions of the end-extended counter DFAs over bit-marked letters
    (alpha, b) plus a trailing bottom marker; the bit is ignored."""
    out = []
    for dfa in hashed_counter_dfas(n):
        acc = f"acc.{dfa.name}"
        trans = []
        for (p, a, q) in dfa.transitions:
            for b in (0, 1):
                trans.append((p, f"{a}_{b}", q))
        for q in dfa.finals:
            trans.append((q, "bot", acc))
        out.append(CheckDfa(f"B{dfa.name}", dfa.states + (acc,), dfa.init,
                            frozenset([acc]), tuple(trans)))
    return out


def counter_intersection_words(n, max_len=None):
    """All words accepted by every counter DFA, up to max_len (default:
    2^n, one past the unique witness length)."""
    if max_len is None:
        max_len = 2 ** n
    dfas = counter_dfas(n)
    deltas = [d.delta() for d in dfas]
    sigma = counter_letters(n)
    start = tuple(d.init for d in dfas)
    out = []
    frontier = [(start, ())]
    for _ in range(max_len + 1):
        nxt = []
        for (qs, word) in frontier:
            if all(q in d.finals for q, d in zip(qs, dfas)):
                out.append(word)
            if len(word) == max_len:
                continue
            for a in sigma:
                try:
                    qs2 = tuple(deltas[i][(q, a)]
                                for i, q in enumerate(qs))
                except KeyError:
                    continue
                nxt.append((qs2, word + (a,)))
        frontier = nxt
        if not frontier:
            break
    return out


# ---------------------------------------------------------------------------
# the lower-bound grammar family


def grammar_gn_text(n):
    """Textual form of G_n (before desugaring)."""
    sigma = counter_letters(n) + ["end"]
    dfas = bottom_marked_dfas(n)
    stack_syms = ["bot"] + [f"{a}_{b}" for a in sigma for b in (0, 1)]
    lines = [
        "start S",
        "terminals a",
        "stack " + " ".join(stack_syms),
        "S -> Z + bot",
    ]
    for a in sigma:
        lines.append(f"Z -> Z + {a}_0")
    lines.append("Z -> D check " + " ".join(d.name for d in dfas))
    lines.append("D -> A A")
    for a in sigma:
        lines.append(f"A - {a}_1 -> A")
        lines.append(f"A - {a}_0 -> B")
        lines.append(f"B -> Z + {a}_1")
    lines.append("A - bot -> F")
    lines.append('F -> "a"')
    for d in dfas:
        parts = ["states " + " ".join(d.states),
                 f"init {d.init}",
                 "final " + " ".join(sorted(d.finals))]
        parts.extend(f"{p} {x} {q}" for (p, x, q) in d.transitions)
        lines.append(f"dfa {d.name} {{ " + "; ".join(parts) + "; }")
    return "\n".join(lines) + "\n"


def grammar_gn(n):
    """The desugared, push-labeled lower-bound grammar G_n."""
    return grammar_from_text(grammar_gn_text(n))
