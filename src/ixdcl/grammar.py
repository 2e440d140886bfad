"""Data model, parsing and normalization of indexed grammars.

An indexed grammar manipulates nonterminals that each carry a stack of
stack symbols.  After normalization, every production has one of four
kinds:

  * terminal   A -> w        (w a word of terminals; the stack is discarded)
  * binary     A -> B C      (the stack is copied to both children)
  * push       A -> B f      (f is pushed on the stack)
  * pop        A f -> B      (applicable when f is the topmost symbol)

The surface syntax additionally allows general right-hand sides,
pop rules with general right-hand sides, and "check" rules that run a
collection of DFAs over the current stack content.

`grammar_from_text` is the one way from text to a grammar, and it
rewrites each rule into the four kinds as it reads it: a grammar it
returns is valid (in the four kinds, over its declared symbols, with one
push rule per stack symbol), and every other input raises
`GrammarError`.  Each terminal is a single character, and every letter
of a quoted word is a declared terminal; every letter of a DFA is a
declared stack symbol, and a DFA block ends its line; nonterminals,
terminals and stack symbols are pairwise disjoint.  The names that
normalization generates are reserved: `W<i>.<n>`, `B<i>.<n>`,
`C<i>.<n>`, `D<i>.<n>` and `P.<n>` (the helpers of rule number n),
`E.<dfa>.<state>` (the DFA gadgets) and `<f>.<k>` (the copies of a
stack symbol f pushed by several rules).  A generated name that equals
a symbol already present is a `GrammarError` naming it, never a merge
of the two.
"""

from __future__ import annotations

from operator import attrgetter


# ---------------------------------------------------------------------------
# records


class Record:
    """The base of the package's records.  A record lists its fields in
    `__slots__`, in the order its `__init__` takes them: a class without
    an `__init__` (one with defaults writes its own) gets one, compiled
    once as `dataclasses` does.  A record equals a record of its own
    class with equal fields, and its repr names the fields.  It is
    mutable and unhashable unless its class is declared `class R(Record,
    frozen=True)`: then assigning a field raises AttributeError, and the
    hash is that of the tuple of fields unless the class sets `__hash__`
    itself.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, frozen=False):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        cls._astuple = (get if len(cls.__slots__) > 1
                        else staticmethod(lambda r: (get(r),)))
        if cls.__init__ is object.__init__:
            cls.__init__ = _fields_init(cls)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
            cls.__hash__ = vars(cls).get("__hash__") or _field_hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._astuple(self)))
        return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def _field_hash(self):
    return hash(self._astuple(self))


# Sets a field of a frozen record, in its __init__.
_set = object.__setattr__


def _fields_init(cls):
    """`__init__(self, <the fields of cls in slot order>)`, qualified by
    cls, as its arity errors name it."""
    ns, names = {}, cls.__slots__
    exec(f"def __init__(self, {', '.join(names)}):\n" + "".join(
        f" _set(self, {n!r}, {n})\n" for n in names), {"_set": _set}, ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return ns["__init__"]


# ---------------------------------------------------------------------------
# core production kinds


class TerminalRule(Record, frozen=True):
    __slots__ = ("lhs", "word")


class BinaryRule(Record, frozen=True):
    __slots__ = ("lhs", "left", "right")


class PushRule(Record, frozen=True):
    __slots__ = ("lhs", "rhs", "sym")


class PopRule(Record, frozen=True):
    __slots__ = ("lhs", "sym", "rhs")


# ---------------------------------------------------------------------------
# grammars


class SymbolTable(Record, frozen=True):
    __slots__ = ("nonterminals", "terminals", "stack_symbols")


class IndexedGrammar(Record):
    __slots__ = ("symbols", "start", "productions", "push_labels")

    def __init__(self, symbols, start, productions, push_labels=None):
        self.symbols = symbols
        self.start = start
        self.productions = productions
        # stack symbol -> (lhs, rhs) of its unique push rule, set by
        # label_pushes
        self.push_labels = {} if push_labels is None else push_labels

    def alpha(self, f):
        return self.push_labels[f][0]

    def beta(self, f):
        return self.push_labels[f][1]

    def size(self):
        n = len(self.symbols.nonterminals) + len(self.productions)
        n += sum(len(p.word) for p in self.productions
                 if isinstance(p, TerminalRule))
        return n


class GrammarError(ValueError):
    """Raised on unusable grammar input: a text that breaks a rule of the
    module docstring, or a file that cannot be read."""


def sort_key(sym):
    """A string for sorting symbols: str(sym), except that tuples and
    frozensets are rendered member by member, and a frozenset's members
    in sorted order.  Annotated symbols hold frozensets, whose str
    follows the hash order of their members, so this key keeps sorted
    symbols in the same order under every PYTHONHASHSEED.
    """
    if isinstance(sym, frozenset):
        return "{" + ",".join(sorted(map(sort_key, sym))) + "}"
    if isinstance(sym, tuple):
        return "(" + ",".join(map(sort_key, sym)) + ")"
    return str(sym)


# ---------------------------------------------------------------------------
# from text to the four kinds


class CheckDfa(Record, frozen=True):
    """A (partial) DFA over stack symbols, used by check rules; its
    transitions are a tuple of (state, letter, state)."""

    __slots__ = ("name", "states", "init", "finals", "transitions")

    def delta(self):
        return {(p, a): q for (p, a, q) in self.transitions}


def grammar_from_text(text):
    """Parse the textual grammar format into an IndexedGrammar with the
    four kinds, its pushes labeled by `label_pushes`.

    Each rule line becomes core rules as it is read; n, in the names of
    its helpers, is its index among the rule lines.  A general
    right-hand side becomes a binary chain, and a pop rule with one pops
    to the helper P.<n> that derives it.  A check rule becomes a chain
    of binary rules whose right children run the DFAs over the stack
    via pop rules.  Single-nonterminal right-hand sides are removed by
    copying the productions of the target (unit elimination), so no
    helper nonterminal is introduced for them.
    """
    start = None
    terminals = []
    stack_syms = []
    rule_lines = []
    dfas = {}
    for line in _lines(text):
        toks = line.split()
        if toks[0] == "start":
            if len(toks) != 2 or start is not None:
                raise GrammarError(f"bad or repeated start line: {line!r}")
            start = toks[1]
        elif toks[0] == "terminals":
            terminals.extend(toks[1:])
        elif toks[0] == "stack":
            stack_syms.extend(toks[1:])
        elif toks[0] == "dfa":
            dfa = _parse_dfa(line)
            if dfa.name in dfas:
                raise GrammarError(f"dfa {dfa.name} is declared twice")
            dfas[dfa.name] = dfa
        else:
            rule_lines.append(line)

    if start is None:
        raise GrammarError("missing start line")
    for t in terminals:
        if len(t) != 1:
            raise GrammarError(f"terminal {t!r} is not a single character")

    # first pass: left-hand sides declare the nonterminals
    declared = {start}
    for line in rule_lines:
        if "->" not in line:
            raise GrammarError(f"malformed rule: {line!r}")
        lhs_part = line.split("->", 1)[0].split()
        if not lhs_part:
            raise GrammarError(f"missing left-hand side: {line!r}")
        declared.add(lhs_part[0])
    terms = frozenset(terminals)
    stacks = frozenset(stack_syms)
    for (a, b, kinds) in [(declared, terms, "nonterminal and a terminal"),
                          (declared, stacks, "nonterminal and a stack symbol"),
                          (terms, stacks, "terminal and a stack symbol")]:
        if a & b:
            raise GrammarError(f"{min(a & b)!r} is both a {kinds}")
    for dfa in dfas.values():
        for (p, a, q) in dfa.transitions:
            if a not in stacks:
                raise GrammarError(
                    f"dfa {dfa.name}: letter {a!r} is not a stack symbol")

    nts = set(declared)  # and the generated names
    core = []        # core rules
    units = []       # (lhs, rhs) unit pairs awaiting elimination
    entered = set()  # the (dfa name, state) pairs with a gadget nonterminal

    def fresh(name):
        if name in nts or name in terms or name in stacks:
            raise GrammarError(f"generated name {name!r} is already a symbol")
        nts.add(name)
        return name

    def add_general(lhs, rhs, idx):
        """Install rules for lhs -> rhs where rhs mixes terminals and NTs."""
        if all(s in terms for s in rhs):
            core.append(TerminalRule(lhs, "".join(rhs)))
            return
        if len(rhs) == 1:
            units.append((lhs, rhs[0]))
            return
        if len(rhs) == 2 and rhs[0] in nts and rhs[1] in nts:
            core.append(BinaryRule(lhs, rhs[0], rhs[1]))
            return
        # w0 A1 w1 ... Ak wk with k >= 1 nonterminal occurrences
        pieces = []   # alternating terminal words and nonterminals
        word = []
        occs = []
        for s in rhs:
            if s in terms:
                word.append(s)
            else:
                pieces.append("".join(word))
                word = []
                occs.append(s)
        pieces.append("".join(word))
        k = len(occs)
        w_names = [fresh(f"W{i}.{idx}") for i in range(k + 1)]
        b_names = [fresh(f"B{i}.{idx}") for i in range(1, k + 1)]
        c_names = [fresh(f"C{i}.{idx}") for i in range(1, k)]
        for i in range(k + 1):
            core.append(TerminalRule(w_names[i], pieces[i]))
        core.append(BinaryRule(lhs, w_names[0], b_names[0]))
        for i in range(1, k):
            core.append(BinaryRule(b_names[i - 1], occs[i - 1], c_names[i - 1]))
            core.append(BinaryRule(c_names[i - 1], w_names[i], b_names[i]))
        core.append(BinaryRule(b_names[k - 1], occs[k - 1], w_names[k]))

    def dfa_state_nt(dfa, q):
        """The nonterminal that pops along the DFA from state q.  An
        explicit stack walks the DFA depth first and emits rules in the
        order of a recursive walk: each pop rule, then the rules of the
        state it reaches if that state is new, and a state's final rule
        after all of its pop rules."""
        def nt(q):
            return f"E.{dfa.name}.{q}"

        def enter(q):
            entered.add((dfa.name, q))
            fresh(nt(q))
            return (q, iter(out.get(q, ())))

        if (dfa.name, q) in entered:
            return nt(q)
        out = {}
        for (p, a, r) in dfa.transitions:
            out.setdefault(p, []).append((a, r))
        stack = [enter(q)]
        while stack:
            p, moves = stack[-1]
            for (a, r) in moves:
                core.append(PopRule(nt(p), a, nt(r)))
                if (dfa.name, r) not in entered:
                    stack.append(enter(r))
                    break
            else:
                stack.pop()
                if p in dfa.finals:
                    core.append(TerminalRule(nt(p), ""))
        return nt(q)

    for idx, line in enumerate(rule_lines):
        lhs_part, rhs_part = line.split("->", 1)
        lhs_toks = lhs_part.split()
        rhs_toks = rhs_part.split()
        lhs = lhs_toks[0]

        pop_sym = None
        if len(lhs_toks) == 3 and lhs_toks[1] == "-":
            pop_sym = lhs_toks[2]
            if pop_sym not in stacks:
                raise GrammarError(f"undeclared stack symbol {pop_sym!r}")
        elif len(lhs_toks) != 1:
            raise GrammarError(f"malformed left-hand side: {line!r}")

        if len(rhs_toks) >= 2 and rhs_toks[1] == "check":
            if pop_sym is not None:
                raise GrammarError(f"check rule cannot pop: {line!r}")
            tgt = rhs_toks[0]
            names = rhs_toks[2:]
            if tgt not in declared:
                raise GrammarError(f"undeclared nonterminal {tgt!r}")
            for nm in names:
                if nm not in dfas:
                    raise GrammarError(f"unknown dfa {nm!r}")
            if not names:
                raise GrammarError(f"check rule without dfas: {line!r}")
            r = len(names)
            d_names = [fresh(f"D{i}.{idx}") for i in range(1, r + 1)]
            c_names = [fresh(f"C{i}.{idx}") for i in range(1, r + 1)]
            core.append(BinaryRule(lhs, d_names[0], c_names[0]))
            for i in range(1, r):
                core.append(BinaryRule(d_names[i - 1], d_names[i], c_names[i]))
            units.append((d_names[r - 1], tgt))
            for i, nm in enumerate(names):
                dfa = dfas[nm]
                units.append((c_names[i], dfa_state_nt(dfa, dfa.init)))
            continue

        if len(rhs_toks) == 3 and rhs_toks[1] == "+":
            tgt, sym = rhs_toks[0], rhs_toks[2]
            if pop_sym is not None:
                raise GrammarError(f"push rule cannot pop: {line!r}")
            if tgt not in declared:
                raise GrammarError(f"undeclared nonterminal {tgt!r}")
            if sym not in stacks:
                raise GrammarError(f"undeclared stack symbol {sym!r}")
            core.append(PushRule(lhs, tgt, sym))
            continue

        # general right-hand side: quoted words and bare symbols
        rhs = []
        for tok in rhs_toks:
            if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
                for letter in tok[1:-1]:
                    if letter not in terms:
                        raise GrammarError(
                            f"letter {letter!r} in {tok} is not a terminal")
                    rhs.append(letter)
            elif tok in terms or tok in declared:
                rhs.append(tok)
            else:
                raise GrammarError(f"undeclared symbol {tok!r} in {line!r}")
        if pop_sym is None:
            add_general(lhs, rhs, idx)
        elif len(rhs) == 1 and rhs[0] in declared:
            core.append(PopRule(lhs, pop_sym, rhs[0]))
        else:
            cont = fresh(f"P.{idx}")
            core.append(PopRule(lhs, pop_sym, cont))
            add_general(cont, rhs, idx)

    # unit elimination: each unit source copies the rules of every
    # nonterminal it reaches along unit pairs
    unit_map = {}
    for (a, b) in units:
        unit_map.setdefault(a, set()).add(b)
    by_lhs = {}
    for p in core:
        by_lhs.setdefault(p.lhs, []).append(p)
    final = list(core)
    for a in sorted(unit_map):
        reached = set()
        todo = [a]
        while todo:
            for b in unit_map.get(todo.pop(), ()):
                if b not in reached:
                    reached.add(b)
                    todo.append(b)
        for b in sorted(reached - {a}):
            for p in by_lhs.get(b, ()):
                # every rule kind has lhs as its first field
                final.append(p.__class__(a, *p._astuple(p)[1:]))

    table = SymbolTable(frozenset(nts), terms, stacks)
    return label_pushes(IndexedGrammar(table, start, tuple(final)))


def _lines(text):
    """The lines of a text without comments and blank lines, each DFA
    block joined into one line."""
    lines = []
    buf = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if buf is not None:
            buf += " " + line
            if "}" in line:
                lines.append(buf)
                buf = None
        elif line.startswith("dfa ") and "}" not in line:
            buf = line
        elif line:
            lines.append(line)
    if buf is not None:
        raise GrammarError("unterminated dfa block")
    return lines


def _parse_dfa(line):
    # dfa name { states q0 q1; init q0; final q1; q0 f q1; }
    head, brace, rest = line.partition("{")
    name_toks = head.split()[1:]
    if not brace or len(name_toks) != 1:
        raise GrammarError(f"malformed dfa header: {line!r}")
    name = name_toks[0]
    body, *after = rest.rsplit("}", 1)
    if after and after[0].strip():
        raise GrammarError(
            f"dfa {name}: text after its closing brace: {after[0].strip()!r}")
    states = []
    init = None
    finals = []
    transitions = []
    for part in body.split(";"):
        toks = part.split()
        if not toks:
            continue
        if toks[0] == "states":
            states.extend(toks[1:])
        elif toks[0] == "init":
            if len(toks) != 2:
                raise GrammarError(f"malformed dfa clause: {part!r}")
            init = toks[1]
        elif toks[0] == "final":
            finals.extend(toks[1:])
        elif len(toks) == 3:
            transitions.append((toks[0], toks[1], toks[2]))
        else:
            raise GrammarError(f"malformed dfa clause: {part!r}")
    if init is None or init not in states:
        raise GrammarError(f"dfa {name}: missing or undeclared init state")
    for q in finals:
        if q not in states:
            raise GrammarError(f"dfa {name}: undeclared final state {q!r}")
    seen = set()
    for (p, a, q) in transitions:
        if p not in states or q not in states:
            raise GrammarError(f"dfa {name}: undeclared state in transition")
        if (p, a) in seen:
            raise GrammarError(f"dfa {name}: nondeterministic on ({p},{a})")
        seen.add((p, a))
    return CheckDfa(name, tuple(states), init, frozenset(finals),
                    tuple(transitions))



# ---------------------------------------------------------------------------
# push labeling


def label_pushes(g):
    """Make every stack symbol the target of exactly one push rule.

    Symbols pushed by several rules are split into one copy per rule (each
    copy inherits all pop rules of the original); symbols never pushed are
    removed together with their pop rules.  The result records, for each
    stack symbol f, the pair (alpha(f), beta(f)) = (lhs, rhs) of its push
    rule.  The generated language is unchanged.
    """
    pushes_of = {}
    for i, p in enumerate(g.productions):
        if isinstance(p, PushRule):
            pushes_of.setdefault(p.sym, []).append(i)

    syms = g.symbols
    taken = syms.nonterminals | syms.terminals | syms.stack_symbols
    rename = {}   # production index -> new symbol for its push
    copies = {}   # old symbol -> list of new symbols
    stack_syms = set()
    for f in sorted(syms.stack_symbols, key=sort_key):
        idxs = pushes_of.get(f, [])
        if not idxs:
            continue
        if len(idxs) == 1:
            copies[f] = [f]
            stack_syms.add(f)
        else:
            names = []
            for k, i in enumerate(idxs, start=1):
                nf = f"{f}.{k}"
                if nf in taken:
                    raise GrammarError(
                        f"copy name {nf!r} of stack symbol {f!r} is "
                        "already a symbol")
                rename[i] = nf
                names.append(nf)
                stack_syms.add(nf)
            copies[f] = names

    prods = []
    labels = {}
    for i, p in enumerate(g.productions):
        if isinstance(p, PushRule):
            sym = rename.get(i, p.sym)
            q = PushRule(p.lhs, p.rhs, sym)
            prods.append(q)
            labels[sym] = (q.lhs, q.rhs)
        elif isinstance(p, PopRule):
            if p.sym not in copies:
                continue   # its symbol can never occur on a stack
            for nf in copies[p.sym]:
                prods.append(PopRule(p.lhs, nf, p.rhs))
        else:
            prods.append(p)

    table = SymbolTable(syms.nonterminals, syms.terminals,
                        frozenset(stack_syms))
    return IndexedGrammar(table, g.start, tuple(prods), labels)
