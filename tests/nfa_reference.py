"""NFAs read state by state, the reference for the closure queries.

`ixdcl.nfa` answers membership and the longest word from a closure's
ideals only.  These versions read any NFA's edges: `simulate` runs the
subset simulation, `longest_path` the longest letter path of the trimmed
graph.  A closure NFA's edges are unfolded when they are read here.
Also the words up to a length, two NFAs built by hand, and the
fingerprint of a closure NFA with its goldens.
"""

import hashlib
import itertools
import json

from ixdcl.nfa import (INFINITE, Nfa, _closure, _step_and_eps,
                       longest_word_or_infinite, sccs)

# (states, transitions, longest word, sha256 prefix of the to_dict JSON)
CLOSURE_GOLDENS = {
    "g1": (4, 5, 2, "7e229ec5cd4c78ea"),
    "loop": (3, 3, 1, "2d6f0ab0c99a644b"),
    "square": (4, 5, INFINITE, "1b3c58aba4a53955"),
    "G_1": (18, 33, 16, "e581654addaa4a3c"),
    "G_2": (65538, 131073, 65536, "c14597fb36b23ce7"),
    "random": (4, 5, 2, "7f323025ac04824a"),
}


def closure_fingerprint(nfa):
    digest = hashlib.sha256(
        json.dumps(nfa.to_dict(), sort_keys=True).encode()).hexdigest()
    return (nfa.n_states, len(nfa.transitions),
            longest_word_or_infinite(nfa), digest[:16])


def words_upto(alphabet, k):
    """Every word over alphabet of length at most k, shortest first and
    in sorted order within a length."""
    return ["".join(t) for n in range(k + 1)
            for t in itertools.product(sorted(alphabet), repeat=n)]


def add_state(nfa):
    """A new state of an NFA built by hand."""
    nfa.n_states += 1
    return nfa.n_states - 1


def astar_bstar_nfa():
    """The NFA of a*b* with two states and no ideals."""
    n = Nfa(frozenset("ab"))
    p, q = add_state(n), add_state(n)
    n.initial, n.final = {p}, {q}
    n.add_edge(p, "a", p)
    n.add_edge(p, None, q)
    n.add_edge(q, "b", q)
    return n


def simulate(nfa, word):
    """Is word accepted by nfa?  The set of states is simulated."""
    step, eps = _step_and_eps(nfa)
    cur = _closure(eps, nfa.initial)
    for c in word:
        nxt = set()
        for s in cur:
            nxt |= step.get((s, c), set())
        cur = _closure(eps, nxt)
        if not cur:
            return False
    return bool(cur & nfa.final)


def longest_path(nfa):
    """Length of a longest accepted word, INFINITE if unbounded, or None
    for the empty language.  Epsilon-only cycles do not pump length."""
    # trim to states on an accepting path
    fwd = {}
    bwd = {}
    for (s, a, t) in nfa.transitions:
        fwd.setdefault(s, []).append(t)
        bwd.setdefault(t, []).append(s)
    live = _closure(fwd, nfa.initial) & _closure(bwd, nfa.final)
    if not live:
        return None
    # every state on a cycle through a live state is live, so the
    # components of live states are those of the whole graph; a letter
    # edge within a component means unbounded
    comps = sccs([fwd.get(q, ()) for q in range(nfa.n_states)], sorted(live))
    comp = {q: i for i, c in enumerate(comps) for q in c}
    # longest letter path in the condensation DAG; sccs emits each
    # component after every component it reaches, so one pass suffices
    cadj = {}
    for (s, a, t) in nfa.transitions:
        if s not in live or t not in live:
            continue
        if comp[s] != comp[t]:
            cadj.setdefault(comp[s], []).append(
                (0 if a is None else 1, comp[t]))
        elif a is not None:
            return INFINITE
    longest = []
    for i in range(len(comps)):
        longest.append(max((w + longest[c] for (w, c) in cadj.get(i, ())),
                           default=0))
    return max(longest[comp[q]] for q in nfa.initial if q in live)


def word_subword_nfa(word, alphabet=None):
    """An NFA for all scattered subwords of a single word."""
    nfa = Nfa(frozenset(alphabet if alphabet is not None else set(word)))
    states = [add_state(nfa) for _ in range(len(word) + 1)]
    nfa.initial = {states[0]}
    nfa.final = {states[-1]}
    for i, c in enumerate(word):
        nfa.add_edge(states[i], c, states[i + 1])
        nfa.add_edge(states[i], None, states[i + 1])
    return nfa
