"""NFAs with epsilon transitions, and the CFG-to-downward-closure-NFA
construction.

The downward closure of any context-free language is regular; this
module computes it symbolically.  A subword-closed language is a finite
union of ideals, each a product of atoms: a run (a + eps)^k of one
optional letter with an exact int count k, or a star block B* over a
letter set B (the simple regular expressions of Abdulla et al., FMSD
2004, with counted letters).  Concatenating two normal ideals changes
only their junction, so a product costs the number of atoms, not the
length of the words they spell: the doubling chain of G_n stays one
atom a^(2^(2^(2^n))).  The grammar is read untrimmed: one linear count
over the rules finds the productive nonterminals, and the dependency
graph of the productive rules (a dead rule must not join two
components) is processed from the start symbol one strongly connected
component at a time, bottom-up:

  * an expansive component (some binary production stays entirely inside
    the component) can pump every letter it can ever produce, so each
    member denotes Gamma* over the component's reachable letters;
  * any other component is linear: one derivation path can visit every
    in-component production arbitrarily often, so under subword closure
    every member denotes U* E V*, where U and V collect the letters of
    left and right factors and E joins the productions leaving the
    component.  For a nonterminal outside every cycle U and V are empty
    and E is the union over its productions.

Few distinct values arise, so each is computed once per distinct
input.  The final expression for the start symbol is then unfolded into an NFA,
k states per run, which keeps the expression in `Nfa.ideals`; an export
of more than CLOSURE_STATE_CAP states raises CapExceeded before any
state is made.  Membership and the longest word (an exact int) read
those ideals when they are present, by greedy matching, in time linear
in the word and the number of atoms; NFAs without them
(built by hand, read back by `nfa_from_dict`, or edited after the
construction) are simulated state by state.  Inclusion and equivalence
always determinize.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .analysis import CapExceeded
from .cfg import CfgBinary, CfgTerminal, live_rules, rule_kids
# Not called: perfbench/spans.py rebinds it.
from .cfg import trim_cfg  # noqa: F401

INFINITE = "infinite"
# The most states the closure NFA export may have.  G_2's closure needs
# 65538; G_3's would need more than 2^256.
CLOSURE_STATE_CAP = 10 ** 6


@dataclass
class Nfa:
    alphabet: frozenset
    n_states: int = 0
    transitions: list = field(default_factory=list)  # (src, letter|None, dst)
    initial: set = field(default_factory=set)
    final: set = field(default_factory=set)
    # The antichain of ideals whose union is the language, or None.  Set
    # by cfg_dcl_nfa; an edit through add_edge clears it.
    ideals: frozenset | None = None

    def add_state(self):
        self.n_states += 1
        return self.n_states - 1

    def add_edge(self, src, letter, dst):
        self.ideals = None
        self.transitions.append((src, letter, dst))

    def to_dict(self):
        return {
            "states": list(range(self.n_states)),
            "alphabet": sorted(self.alphabet),
            "initial": sorted(self.initial),
            "final": sorted(self.final),
            "transitions": sorted(
                [s, a if a is not None else "", t]
                for (s, a, t) in self.transitions),
        }


def nfa_from_dict(d):
    nfa = Nfa(frozenset(d["alphabet"]))
    nfa.n_states = len(d["states"])
    nfa.initial = set(d["initial"])
    nfa.final = set(d["final"])
    for (s, a, t) in d["transitions"]:
        nfa.add_edge(s, a if a != "" else None, t)
    return nfa


def _closure(adj, states):
    """States reachable from states along the adjacency adj."""
    out = set(states)
    queue = list(states)
    while queue:
        s = queue.pop()
        for t in adj.get(s, ()):
            if t not in out:
                out.add(t)
                queue.append(t)
    return out


def _step_and_eps(nfa):
    """The letter steps (state, letter) -> set of states, and the epsilon
    adjacency state -> list of states."""
    step = {}
    eps = {}
    for (s, a, t) in nfa.transitions:
        if a is not None:
            step.setdefault((s, a), set()).add(t)
        else:
            eps.setdefault(s, []).append(t)
    return step, eps


def nfa_member(nfa, word):
    if nfa.ideals is not None:
        return any(_accepts(ideal, word) for ideal in nfa.ideals)
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


def word_subword_nfa(word, alphabet=None):
    """An NFA for all scattered subwords of a single word."""
    nfa = Nfa(frozenset(alphabet if alphabet is not None else set(word)))
    states = [nfa.add_state() for _ in range(len(word) + 1)]
    nfa.initial = {states[0]}
    nfa.final = {states[-1]}
    for i, c in enumerate(word):
        nfa.add_edge(states[i], c, states[i + 1])
        nfa.add_edge(states[i], None, states[i + 1])
    return nfa


def dcl_close(nfa):
    """The downward closure of an NFA language: every letter transition
    also becomes an epsilon transition."""
    out = Nfa(nfa.alphabet, nfa.n_states, list(nfa.transitions),
              set(nfa.initial), set(nfa.final))
    for (s, a, t) in nfa.transitions:
        if a is not None:
            out.add_edge(s, None, t)
    return out


# ---------------------------------------------------------------------------
# determinization and comparison


@dataclass
class Dfa:
    alphabet: frozenset
    n_states: int
    delta: dict          # (state, letter) -> state, total
    initial: int
    final: set


def determinize(nfa, cap=100000):
    """Subset construction; the result is total (has a sink if needed)."""
    alphabet = sorted(nfa.alphabet)
    step, eps = _step_and_eps(nfa)
    start = frozenset(_closure(eps, nfa.initial))
    ids = {start: 0}
    order = [start]
    delta = {}
    i = 0
    while i < len(order):
        cur = order[i]
        i += 1
        for a in alphabet:
            nxt = set()
            for s in cur:
                nxt |= step.get((s, a), set())
            nxt = frozenset(_closure(eps, nxt))
            if nxt not in ids:
                if len(order) >= cap:
                    raise CapExceeded("determinization cap exceeded")
                ids[nxt] = len(order)
                order.append(nxt)
            delta[(ids[cur], a)] = ids[nxt]
    final = {ids[st] for st in order if st & nfa.final}
    return Dfa(frozenset(alphabet), len(order), delta, 0, final)


def nfa_inclusion(n1, n2, cap=100000):
    """Is L(n1) a subset of L(n2)?  Returns (bool, counterexample|None)
    with a shortest counterexample on failure."""
    alphabet = sorted(n1.alphabet | n2.alphabet)
    d1 = determinize(Nfa(frozenset(alphabet), n1.n_states,
                         list(n1.transitions), set(n1.initial),
                         set(n1.final)), cap)
    d2 = determinize(Nfa(frozenset(alphabet), n2.n_states,
                         list(n2.transitions), set(n2.initial),
                         set(n2.final)), cap)
    start = (d1.initial, d2.initial)
    seen = {start: None}
    queue = deque([start])
    while queue:
        (q1, q2) = queue.popleft()
        if q1 in d1.final and q2 not in d2.final:
            # rebuild the witness word
            word = []
            cur = (q1, q2)
            while seen[cur] is not None:
                cur, a = seen[cur]
                word.append(a)
            return False, "".join(reversed(word))
        for a in alphabet:
            nxt = (d1.delta[(q1, a)], d2.delta[(q2, a)])
            if nxt not in seen:
                seen[nxt] = ((q1, q2), a)
                queue.append(nxt)
    return True, None


def nfa_equivalence(n1, n2, cap=100000):
    """Returns (equal, counterexample|None); the counterexample is a
    shortest word in the symmetric difference."""
    ok12, cex12 = nfa_inclusion(n1, n2, cap)
    ok21, cex21 = nfa_inclusion(n2, n1, cap)
    if ok12 and ok21:
        return True, None
    cands = [c for c in (cex12, cex21) if c is not None]
    return False, min(cands, key=lambda w: (len(w), w))


def longest_word_or_infinite(nfa):
    """Length of a longest accepted word, INFINITE if unbounded, or None
    for the empty language.  Epsilon-only cycles do not pump length."""
    if nfa.ideals is not None:
        if not nfa.ideals:
            return None
        if any(atom[0] == "s" for ideal in nfa.ideals for atom in ideal):
            return INFINITE
        return max(sum(atom[2] for atom in ideal) for ideal in nfa.ideals)
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
    comps = sccs(sorted(live), fwd)
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


def sccs(nodes, adj):
    """Tarjan's strongly connected components of the graph adj (a dict
    of successor lists) from the roots nodes, without recursion.  Each
    component is emitted after every component it reaches."""
    index = {}
    low = {}
    on = set()
    stack = []
    out = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


# ---------------------------------------------------------------------------
# CFG -> downward-closure NFA


# Ideals are tuples of atoms ("l", letter, k) for a run of k optional
# letters (letter + eps)^k, k >= 1, and ("s", frozenset) for a star
# block; a subword-closed language is a frozenset of ideals kept as an
# antichain under ideal inclusion.  In a normal ideal no star block is
# empty, adjacent runs have different letters, and no atom is absorbed by
# an adjacent star block: a run of a letter the block contains, or a
# block whose letters it contains.  Counts are exact ints, so a^(2^256)
# is one atom.


def _push_atom(out, atom):
    """Append atom to the normal ideal in the list out, merging a run into
    a run of its letter and dropping what an adjacent star block absorbs;
    returns whether atom was kept."""
    if atom[0] == "s":
        val = atom[1]
        if not val:
            return False
        while out and (out[-1][1] in val if out[-1][0] == "l"
                       else out[-1][1] <= val):
            out.pop()
        if out and out[-1][0] == "s" and val <= out[-1][1]:
            return False
    elif out:
        top = out[-1]
        if top[0] == "s":
            if atom[1] in top[1]:
                return False
        elif top[1] == atom[1]:
            out[-1] = ("l", atom[1], top[2] + atom[2])
            return True
    out.append(atom)
    return True


def _norm_ideal(atoms):
    """The normal form of any sequence of atoms."""
    out = []
    for atom in atoms:
        _push_atom(out, atom)
    return tuple(out)


def _join(x, y):
    """The normal form of x·y for normal x and y.  Only the junction can
    change: y's atoms are fed onto x until one is kept, and the rest of y
    follows unchanged."""
    out = list(x)
    for i, atom in enumerate(y):
        if _push_atom(out, atom):
            return tuple(out) + y[i + 1:]
    return tuple(out)


def _ideal_le(small, big):
    """Ideal inclusion by greedy left-to-right matching.  Both are normal,
    so the atom after a run of small is never that run's letter: a run
    of big that a run of small ends in is of no further use."""
    j = 0
    for atom in small:
        if atom[0] == "s":
            val = atom[1]
            while j < len(big) and not (big[j][0] == "s"
                                        and val <= big[j][1]):
                j += 1
            if j == len(big):
                return False
            continue
        c, k = atom[1], atom[2]
        while k > 0:
            if j == len(big):
                return False
            bj = big[j]
            if bj[0] == "s":
                if c in bj[1]:
                    break
            elif bj[1] == c:
                k -= bj[2]
            j += 1
    return True


def _ideal_key(ideal):
    """A sort key ordering counted ideals as the tuples of their unfolded
    atoms ("l", c) and ("s", sorted letters) would be ordered.  A run of
    c that ends earlier meets its successor where the other run still
    has a c; so more c's sort first if the successor is above ("l", c),
    later if it is below or absent."""
    out = []
    for i, atom in enumerate(ideal):
        if atom[0] == "s":
            out.append(("s", tuple(sorted(atom[1]))))
            continue
        nxt = ideal[i + 1] if i + 1 < len(ideal) else None
        up = nxt is not None and (nxt[0] == "s" or nxt[1] > atom[1])
        out.append(("l", atom[1], 1, -atom[2]) if up
                   else ("l", atom[1], -1, atom[2]))
    return tuple(out)


def _antichain(ideals):
    items = set(ideals)
    if len(items) < 2:
        return frozenset(items)
    items = sorted(items, key=_ideal_key)
    out = []
    for i, small in enumerate(items):
        dominated = False
        for k, big in enumerate(items):
            if k == i:
                continue
            if _ideal_le(small, big):
                if k > i and _ideal_le(big, small):
                    continue   # mutual inclusion: keep the earlier one
                dominated = True
                break
        if not dominated:
            out.append(small)
    return frozenset(out)


def _sre_concat(xs, ys):
    return _antichain(_join(x, y) for x in xs for y in ys)


def _word_ideal(word):
    return _norm_ideal(("l", c, 1) for c in word)


def _star(letters):
    return (("s", frozenset(letters)),) if letters else ()


def _accepts(ideal, word):
    """Is word in the ideal?  Each atom takes the longest prefix it can of
    what is left; the ideal's language is subword-closed, so that is
    never worse than a shorter one."""
    i, n = 0, len(word)
    for atom in ideal:
        if i == n:
            return True
        if atom[0] == "s":
            val = atom[1]
            while i < n and word[i] in val:
                i += 1
        else:
            c, end = atom[1], min(n, i + atom[2])
            while i < end and word[i] == c:
                i += 1
    return i == n


def cfg_dcl_nfa(cfg, cap=100000):
    """An NFA for the downward closure of a context-free language."""
    by_lhs, adj = {}, {}
    for r in live_rules(cfg):
        by_lhs.setdefault(r.lhs, []).append(r)
        adj.setdefault(r.lhs, []).extend(rule_kids(r))
    out = Nfa(frozenset(cfg.terminals))
    if cfg.start not in by_lhs:   # the start is unproductive
        out.initial = {out.add_state()}
        out.ideals = frozenset()
        return out   # empty language, no final state

    # sccs emits components dependencies-first, so a component's value
    # reads only lower ones.  The members of a component reach each
    # other, so they share its letters: their own terminal letters and
    # those of the lower components they use.  A component is expansive
    # if a binary rule stays inside it, else linear: U* E V*, with U and
    # V the letters beside a recursive rule and E the exit rules' values.
    sre = {}    # nt -> frozenset of ideals
    alph = {}   # nt -> the letters it can ever produce
    # a terminal word, a pair to concatenate, the letters of an expansive
    # component, or (U*, V*, the exit values) -> its value
    memo = {}

    def once(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    for members in sccs([cfg.start], adj):
        inside = set(members)
        letters, up, down, exits = set(), set(), set(), set()
        expansive = False
        for r in (r for nt in members for r in by_lhs[nt]):
            if isinstance(r, CfgTerminal):
                w = r.word
                letters.update(w)
                exits.add(once(w, lambda: frozenset([_word_ideal(w)])))
            elif isinstance(r, CfgBinary):
                left, right = r.left in inside, r.right in inside
                if not left:
                    letters |= alph[r.left]
                if not right:
                    letters |= alph[r.right]
                if left and right:
                    expansive = True
                elif left:
                    down |= alph[r.right]
                elif right:
                    up |= alph[r.left]
                else:
                    key = (sre[r.left], sre[r.right])
                    exits.add(once(key, lambda: _sre_concat(*key)))
            elif r.rhs not in inside:
                letters |= alph[r.rhs]
                exits.add(sre[r.rhs])
        if expansive:
            value = once(frozenset(letters),
                         lambda: frozenset([_star(letters)]))
        elif not up and not down and len(exits) == 1:
            value = exits.pop()   # U* E V* is E: most components
        else:
            pre, post = _star(up), _star(down)
            value = once((pre, post, frozenset(exits)), lambda: _antichain(
                _join(_join(pre, e), post) for x in exits for e in x))
        if len(value) > cap:
            raise CapExceeded("closure expression cap exceeded")
        for nt in members:
            alph[nt] = letters
            sre[nt] = value
    out.alphabet |= alph[cfg.start]

    # the export unfolds a run of k letters into k states
    states = 2 + sum(atom[2] if atom[0] == "l" else 1
                     for ideal in sre[cfg.start] for atom in ideal)
    if states > CLOSURE_STATE_CAP:
        raise CapExceeded(f"closure NFA state cap exceeded: {states} "
                          f"states, limit {CLOSURE_STATE_CAP}")
    # state 0 is initial, 1 final, then one per unfolded atom in order
    out.n_states = states
    out.initial, out.final = {0}, {1}
    edges = out.transitions
    nxt = 2
    for ideal in sorted(sre[cfg.start], key=_ideal_key):
        cur = 0
        for atom in ideal:
            if atom[0] == "l":
                for q in range(nxt, nxt + atom[2]):
                    edges += ((cur, atom[1], q), (cur, None, q))
                    cur = q
            else:
                edges.append((cur, None, nxt))
                edges += ((nxt, c, nxt) for c in sorted(atom[1]))
                cur = nxt
            nxt = cur + 1
        edges.append((cur, None, 1))
    out.ideals = sre[cfg.start]
    return out
