"""The grammar texts that more than one file reads, the CI workflow's
among them, and `grammar`, one lookup over the tests' named grammars.
A text that one test module alone reads stays in that module.
"""

from ixdcl.families import G1_TEXT, G_LOOP_TEXT, SQUARE_TEXT, grammar_gn
from ixdcl.grammar import grammar_from_text

# a drawn grammar whose summary graph has 361 nodes
RANDOM_361_TEXT = """\
start V
terminals a b
stack k
Z -> V + k
Z - k -> b b
A - k -> Z
V -> Z + k
N - k -> b
V - k -> b b
N -> a
"""

# The focus matrix M of a monoid element is needed: T pushes f^k onto z,
# and U and V pop it with opposite parities, so the word is ab for even
# k and ba for odd k.  Without M, f^k has one idempotent image for every
# k, the two parities merge, and the closure gains aa and bb.
PARITY_TEXT = """\
start S
terminals a b
stack f z
S -> T + z
T -> T + f
T -> U V
U - f -> U2
U2 - f -> U
U - z -> "a"
U2 - z -> "b"
V - f -> V2
V2 - f -> V
V - z -> "b"
V2 - z -> "a"
"""

# The same-level focus needs its push rules: R pops h to A, which pushes
# f and pops it again, so the route from B down to the g below returns
# to its level through a push.  Without it the closure is empty.
SAME_LEVEL_TEXT = """\
start S
terminals a
stack f g h
S -> B + g
B -> R + h
R - h -> A
A -> Z + f
Z - f -> Y
Y - g -> "a"
"""

# the empty language: S only pushes, so no derivation ends
EMPTY_TEXT = "start S\nterminals a\nstack f\nS -> S + f\n"

# the two drawn grammars of the benchmark's `random` population whose
# summary graphs exceed the default cap of 4096 nodes
CAPPED_TEXTS = {
    "push_pair": """\
start A
terminals a b
stack l
D -> a
A -> N + l
N -> A + l
D -> A
A -> D b
dfa K0 { states q0; init q0; final q0; }
""",
    "check": """\
start U
terminals a b
stack s x
U -> K + x
S -> K check K0
S -> b b U
K -> S + s
U -> b b S
K -> a
dfa K0 { states q0; init q0; final q0; q0 x q0; }
""",
}


def chain_text(k, kids_first=False):
    """The stack-free chain A0 -> A1 A1, ..., A{k-1} -> Ak Ak, Ak -> "a",
    whose one word is a^(2^k), its rules listed parent first or kids
    first."""
    rules = [f"A{i} -> A{i + 1} A{i + 1}" for i in range(k)]
    rules.append(f'A{k} -> "a"')
    if kids_first:
        rules.reverse()
    return "start A0\nterminals a\n" + "\n".join(rules) + "\n"


_TEXTS = {"g1": G1_TEXT, "loop": G_LOOP_TEXT, "square": SQUARE_TEXT,
          "random": RANDOM_361_TEXT, "parity": PARITY_TEXT,
          "same_level": SAME_LEVEL_TEXT}


def grammar(name):
    """The grammar of a name of _TEXTS or G_n (the lower-bound family),
    parsed anew on each call, so that no two tests share its state."""
    if name.startswith("G_"):
        return grammar_gn(int(name[2:]))
    return grammar_from_text(_TEXTS[name])
