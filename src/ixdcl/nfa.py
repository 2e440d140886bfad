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
atom a^(2^(2^(2^n))).  The grammar must be trim, as the cover is (see
`ixdcl.cfg`); its dependency graph, in lists indexed by nonterminal
number, is processed from the start, 0, one strongly connected
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
input.  `cfg_dcl_nfa` returns a read-only NFA that keeps the start
symbol's antichain in `Nfa.ideals` and has its state and edge counts
computed from it.  Its edges, k states per run, are unfolded only when
an export reads them; an export of more than CLOSURE_STATE_CAP states
raises CapExceeded then, before any edge is made, so the closure of G_3
exists as one ideal while its export does not.  Every query reads the
ideals.  Membership and the longest word (an exact int) match greedily,
in time linear in the word and the number of atoms.  Normal ideals are
canonical (see `_antichain`), so an antichain is just the maximal ideals
of a set.  Inclusion holds when every ideal of one side lies under some
ideal of the other (an ideal lies in a finite union of downward-closed
sets only if it lies in one of them), and equivalence when the
antichains are equal.  Any other case searches a product breadth-first
for a shortest counterexample.  A closure steps there through the tuple
of its greedy match positions, one per ideal, which is a deterministic
state; only an NFA built by hand is determinized.
"""

from __future__ import annotations

from collections import deque

from .analysis import CapExceeded
from .cfg import sccs
from .grammar import Record
# Not called: perfbench/spans.py rebinds it.
from .cfg import trim_cfg  # noqa: F401

INFINITE = "infinite"
# The most states the closure NFA export may have.  G_2's closure needs
# 65538; G_3's would need more than 2^256.
CLOSURE_STATE_CAP = 10 ** 6
# The most ideals the closure of one component may have.
CLOSURE_IDEAL_CAP = 100000


class Nfa(Record):
    __slots__ = ("alphabet", "n_states", "transitions", "initial", "final",
                 "ideals")

    def __init__(self, alphabet, n_states=0, transitions=None, initial=None,
                 final=None, ideals=None):
        self.alphabet = alphabet
        self.n_states = n_states
        # (src, letter|None, dst)
        self.transitions = [] if transitions is None else transitions
        self.initial = set() if initial is None else initial
        self.final = set() if final is None else final
        # The antichain of ideals whose union is the language; None for an
        # NFA built by hand.  Set by cfg_dcl_nfa, whose NFA is read-only:
        # every query reads the ideals, and only an export unfolds the edges.
        self.ideals = ideals

    def add_edge(self, src, letter, dst):
        self.transitions.append((src, letter, dst))

    def to_dict(self):
        # the edges first: a closure too large to export raises
        # CapExceeded before its states are listed
        edges = sorted([s, a if a is not None else "", t]
                       for (s, a, t) in self.transitions)
        return {
            "states": list(range(self.n_states)),
            "alphabet": sorted(self.alphabet),
            "initial": sorted(self.initial),
            "final": sorted(self.final),
            "transitions": edges,
        }


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
    """Is word in the closure nfa?  `_step` is folded over the word for
    each ideal, and an ideal is dropped once it takes no more letters."""
    for ideal in nfa.ideals:
        pos = (0, 0)
        for c in word:
            pos = _step(ideal, pos, c)
            if pos is None:
                break
        else:
            return True
    return False


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


class Dfa(Record):
    __slots__ = ("alphabet", "n_states", "delta", "initial", "final")

    def __init__(self, alphabet, n_states, delta, initial, final):
        self.alphabet = alphabet
        self.n_states = n_states
        self.delta = delta   # (state, letter) -> state, total
        self.initial = initial
        self.final = final


def determinize(nfa, cap=100000):
    """Subset construction; the result is total (has a sink if needed).
    The subsets made may hold at most cap NFA states together, an empty
    one counting as one; more raises CapExceeded."""
    alphabet = sorted(nfa.alphabet)
    step, eps = _step_and_eps(nfa)
    ids = {}
    order = []
    size = 0

    def add(subset):
        nonlocal size
        size += len(subset) or 1
        if size > cap:
            raise CapExceeded.of("determinization", size,
                                 "states in subsets", cap, "--max-dfa-states")
        ids[subset] = len(order)
        order.append(subset)

    add(frozenset(_closure(eps, nfa.initial)))
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
                add(nxt)
            delta[(ids[cur], a)] = ids[nxt]
    final = {ids[st] for st in order if st & nfa.final}
    return Dfa(frozenset(alphabet), len(order), delta, 0, final)


def _view(nfa, alphabet, cap):
    """A deterministic view of nfa over alphabet: a start state, a step
    function and an accept test.  A closure's state is the tuple of its
    greedy match positions, one per ideal (see `_step`), and it accepts
    while one of them is alive; an NFA built by hand is determinized."""
    if nfa.ideals is None:
        d = determinize(Nfa(alphabet, nfa.n_states, nfa.transitions,
                            nfa.initial, nfa.final), cap)
        return d.initial, lambda q, a: d.delta[(q, a)], d.final.__contains__
    ideals = tuple(nfa.ideals)

    def step(q, a):
        return tuple(_step(x, p, a) for x, p in zip(ideals, q))

    def accepts(q):
        return any(p is not None for p in q)

    return ((0, 0),) * len(ideals), step, accepts


def _first_difference(n1, n2, cap, differs):
    """The shortest word, then the alphabetically least, that leads the
    views of n1 and n2 to states whose acceptance (a1, a2) makes
    differs(a1, a2) true, or None if there is none.  The product is
    searched breadth-first with the letters in sorted order; visiting
    more than cap of its states raises CapExceeded."""
    alphabet = frozenset(n1.alphabet | n2.alphabet)
    (s1, step1, acc1), (s2, step2, acc2) = (_view(n, alphabet, cap)
                                            for n in (n1, n2))
    letters = sorted(alphabet)
    seen, queue = {}, deque()

    def visit(pair, back):   # the start pair counts against cap too
        if len(seen) >= cap:
            raise CapExceeded.of("comparison", len(seen) + 1,
                                 "product states", cap, "--max-dfa-states")
        seen[pair] = back
        queue.append(pair)

    visit((s1, s2), None)
    while queue:
        pair = queue.popleft()
        q1, q2 = pair
        if differs(acc1(q1), acc2(q2)):
            # rebuild the witness word
            word = []
            while seen[pair] is not None:
                pair, a = seen[pair]
                word.append(a)
            return "".join(reversed(word))
        for a in letters:
            nxt = (step1(q1, a), step2(q2, a))
            if nxt not in seen:
                visit(nxt, (pair, a))
    return None


def nfa_inclusion(n1, n2, cap=100000):
    """Is L(n1) a subset of L(n2)?  Returns (bool, counterexample|None)
    with a shortest counterexample on failure."""
    if n1.ideals is not None and n2.ideals is not None and all(
            any(_ideal_le(x, y) for y in n2.ideals) for x in n1.ideals):
        return True, None
    cex = _first_difference(n1, n2, cap, lambda a1, a2: a1 and not a2)
    return cex is None, cex


def nfa_equivalence(n1, n2, cap=100000):
    """Returns (equal, counterexample|None); the counterexample is a
    shortest word in the symmetric difference."""
    if n1.ideals is not None and n1.ideals == n2.ideals:
        return True, None
    cex = _first_difference(n1, n2, cap, lambda a1, a2: a1 != a2)
    return cex is None, cex


def longest_word_or_infinite(nfa):
    """Length of a longest word of the closure nfa, INFINITE if unbounded,
    or None for the empty language."""
    if not nfa.ideals:
        return None
    if any(atom[0] == "s" for ideal in nfa.ideals for atom in ideal):
        return INFINITE
    return max(sum(atom[2] for atom in ideal) for ideal in nfa.ideals)


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
    """A deterministic sort key, by which the export numbers its states."""
    return tuple(("s", tuple(sorted(a[1]))) if a[0] == "s" else a
                 for a in ideal)


def _antichain(ideals):
    """The maximal ideals of a set of normal ideals.

    Normal ideals are canonical: two different ones never denote the
    same language L, so they never include each other and no tie needs
    breaking.  Let W_N(X) spell each run of X out and each star block as
    N copies of a listing of its letters; L(X) is included in L(Y) iff
    every W_N(X) is in L(Y).  By induction on the number of atoms:
      (a) no normal X = x T is included in a proper suffix T' of itself.
          If x is a run c^k, the first c of W_N(X) lands in T' past T's
          first atom, which holds no c.  If x is B*, then for large N
          some copy of B's listing lands in a single star block that
          contains B, and that is not T's first atom, which would absorb
          x.  Either way W_N(T) lies in a proper suffix of T.
      (b) {w : aw in L(X)} is L(X) iff X starts with a star block holding
          a.  Otherwise it lies in L(X minus its first atom) or, for
          X = c^k R and a = c, in L(c^(k-1) R), and by (a) neither
          includes L(X): the k-th c of W_N(X) would land in R past its
          first atom.
      (c) So if L(X) = L(Y), both start with the same star block B* or
          both with a run.  For B* R and B* S, W_N(R) from its first
          letter outside B on (in the first copy of R's first atom) lies
          in S, so L(R) is in L(S), by symmetry L(R) = L(S), and R = S.
          For c^k R and d^j S, c = d, else W_N(X) would lie in S against
          (a); if k <= j, stripping c^k leaves L(R) = L(c^(j-k) S), so
          R = c^(j-k) S, and R starts with no run of c, so j = k and
          R = S.
    """
    items = set(ideals)
    if len(items) < 2:
        return frozenset(items)
    return frozenset(small for small in items if not any(
        big is not small and _ideal_le(small, big) for big in items))


def _word_ideal(word):
    return _norm_ideal(("l", c, 1) for c in word)


def _star(letters):
    return (("s", frozenset(letters)),) if letters else ()


def _step(ideal, pos, c):
    """The greedy match position in ideal after one more letter c: the
    index of the atom that takes c and the letters taken from it, or
    None once no atom is left that takes c.  Folded over a word from
    (0, 0), each atom takes the longest prefix it can of what is left;
    the ideal's language is subword-closed, so that is never worse than
    a shorter one, and the word is in the ideal exactly when the fold
    never gives None."""
    if pos is None:
        return None
    j, t = pos
    while j < len(ideal):
        atom = ideal[j]
        if atom[0] == "s":
            if c in atom[1]:
                return j, 0
        elif atom[1] == c and t < atom[2]:
            return j, t + 1
        j, t = j + 1, 0
    return None


class _Values(dict):
    """The values of `cfg_dcl_nfa`, each made on its first lookup from
    its key: a terminal word, the letters of an expansive component, a
    pair of values to concatenate, or (U*, V*, the exit values); none
    with more than CLOSURE_IDEAL_CAP ideals."""

    def __missing__(self, key):
        if key.__class__ is str:
            value = frozenset([_word_ideal(key)])
        elif key.__class__ is frozenset:
            value = frozenset([_star(key)])
        elif len(key) == 2:
            value = _antichain(_join(x, y) for x in key[0] for y in key[1])
        else:
            pre, post, exits = key
            value = _antichain(_join(_join(pre, e), post)
                               for x in exits for e in x)
        if len(value) > CLOSURE_IDEAL_CAP:
            raise CapExceeded.of("closure expression", len(value), "ideals",
                                 CLOSURE_IDEAL_CAP, "CLOSURE_IDEAL_CAP")
        self[key] = value
        return value


def cfg_dcl_nfa(cfg):
    """An NFA for the downward closure of the language of a trim CFG."""
    rules = cfg.rules
    if not rules or not rules[0]:   # a trim CFG of the empty language
        # one initial state, no final state
        return Nfa(frozenset(cfg.terminals), 1, _Edges(frozenset(), 1),
                   {0}, set(), frozenset())

    # sccs emits components dependencies-first, so a component's value
    # reads only lower ones.  The members of a component reach each
    # other, so they share its letters: their own terminal letters and
    # those of the lower components they use.  A component is expansive
    # if a binary rule stays inside it, else linear: U* E V*, with U and
    # V the letters beside a recursive rule and E the exit rules' values.
    n = len(rules)
    sre = [None] * n    # nonterminal -> frozenset of ideals
    alph = [None] * n   # nonterminal -> the letters it can ever produce
    comp = [-1] * n     # nonterminal -> its component (-1 in one-rule ones)
    values = _Values()
    adj = [[k for r in rs if r.__class__ is not str for k in r]
           for rs in rules]
    for c, members in enumerate(sccs(adj, [0])):
        if len(members) == 1 and len(rules[members[0]]) == 1:
            # most components: one rule, which cannot use its own lhs,
            # since the lhs would then be unproductive
            nt = members[0]
            (r,) = rules[nt]
            if r.__class__ is str:
                alph[nt], sre[nt] = set(r), values[r]
            elif len(r) == 1:
                alph[nt], sre[nt] = alph[r[0]], sre[r[0]]
            else:
                alph[nt] = alph[r[0]] | alph[r[1]]
                sre[nt] = values[sre[r[0]], sre[r[1]]]
            continue
        for nt in members:
            comp[nt] = c
        letters, up, down, exits = set(), set(), set(), set()
        expansive = False
        for nt in members:
            for r in rules[nt]:
                if r.__class__ is str:
                    letters.update(r)
                    exits.add(values[r])
                elif len(r) == 2:
                    lk, rk = r
                    left, right = comp[lk] == c, comp[rk] == c
                    if not left:
                        letters |= alph[lk]
                    if not right:
                        letters |= alph[rk]
                    if left and right:
                        expansive = True
                    elif left:
                        down |= alph[rk]
                    elif right:
                        up |= alph[lk]
                    else:
                        exits.add(values[sre[lk], sre[rk]])
                elif comp[r[0]] != c:
                    letters |= alph[r[0]]
                    exits.add(sre[r[0]])
        if expansive:
            value = values[frozenset(letters)]
        elif not up and not down and len(exits) == 1:
            value = exits.pop()   # U* E V* is E: most components
        else:
            value = values[_star(up), _star(down), frozenset(exits)]
        for nt in members:
            alph[nt] = letters
            sre[nt] = value
    # the export unfolds a run of k letters into k states
    value = sre[0]
    states = 2 + sum(atom[2] if atom[0] == "l" else 1
                     for ideal in value for atom in ideal)
    # state 0 is initial, 1 final, then one per unfolded atom in order
    return Nfa(frozenset(cfg.terminals) | alph[0], states,
               _Edges(value, states), {0}, {1}, value)


class _Edges:
    """The edge list of a closure NFA, unfolded from its ideals when it
    is first read; its length is known before.  Unfolding an export of
    more than CLOSURE_STATE_CAP states raises CapExceeded."""

    def __init__(self, ideals, states):
        self.ideals, self.states = ideals, states
        # a run of k letters has 2k edges; a star block one epsilon edge
        # and a loop per letter; each ideal one epsilon edge to the end
        self.size = len(ideals) + sum(
            2 * atom[2] if atom[0] == "l" else 1 + len(atom[1])
            for ideal in ideals for atom in ideal)
        self._list = None

    def _edges(self):
        if self._list is None:
            self._check_cap()
            self._list = _unfold(self.ideals)
        return self._list

    def _check_cap(self):
        if self.states > CLOSURE_STATE_CAP:
            raise CapExceeded.of("closure NFA state", self.states, "states",
                                 CLOSURE_STATE_CAP, "CLOSURE_STATE_CAP")

    def __len__(self):
        self._check_cap()   # len() cannot return G_3's count
        return self.size if self._list is None else len(self._list)

    def __iter__(self):
        return iter(self._edges())


def _unfold(ideals):
    """The export's edges, in the state numbering of cfg_dcl_nfa."""
    edges = []
    nxt = 2
    for ideal in sorted(ideals, key=_ideal_key):
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
    return edges
