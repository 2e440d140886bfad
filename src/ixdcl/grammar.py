"""Data model, parsing, normalization and printing of indexed grammars.

An indexed grammar manipulates nonterminals that each carry a stack of
stack symbols.  After normalization, every production has one of four
kinds:

  * terminal   A -> w        (w a word of terminals; the stack is discarded)
  * binary     A -> B C      (the stack is copied to both children)
  * push       A -> B f      (f is pushed on the stack)
  * pop        A f -> B      (applicable when f is the topmost symbol)

The surface syntax additionally allows general right-hand sides,
pop rules with general right-hand sides, and "check" rules that run a
collection of DFAs over the current stack content.  `desugar` rewrites
all of these into the four kinds above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


# ---------------------------------------------------------------------------
# core production kinds


@dataclass(frozen=True)
class TerminalRule:
    lhs: object
    word: str


@dataclass(frozen=True)
class BinaryRule:
    lhs: object
    left: object
    right: object


@dataclass(frozen=True)
class PushRule:
    lhs: object
    rhs: object
    sym: object


@dataclass(frozen=True)
class PopRule:
    lhs: object
    sym: object
    rhs: object


CORE_KINDS = (TerminalRule, BinaryRule, PushRule, PopRule)


# ---------------------------------------------------------------------------
# sugared production kinds


@dataclass(frozen=True)
class PlainSugarRule:
    """A -> t1 t2 ... with an arbitrary mix of terminals and nonterminals."""

    lhs: object
    rhs: tuple


@dataclass(frozen=True)
class PopSugarRule:
    """A f -> t1 t2 ... : pop f, then behave like the general right-hand side."""

    lhs: object
    sym: object
    rhs: tuple


@dataclass(frozen=True)
class CheckRule:
    """A -> [D1..Dr] B : continue as B if every DFA accepts the stack content."""

    lhs: object
    rhs: object
    dfa_names: tuple


@dataclass(frozen=True)
class CheckDfa:
    """A (partial) DFA over stack symbols, used by check rules."""

    name: str
    states: tuple
    init: object
    finals: frozenset
    transitions: tuple  # tuple of (state, letter, state)

    def delta(self):
        return {(p, a): q for (p, a, q) in self.transitions}

    def accepts(self, word):
        d = self.delta()
        q = self.init
        for a in word:
            if (q, a) not in d:
                return False
            q = d[(q, a)]
        return q in self.finals


# ---------------------------------------------------------------------------
# grammars


@dataclass(frozen=True)
class SymbolTable:
    nonterminals: frozenset
    terminals: frozenset
    stack_symbols: frozenset


@dataclass
class IndexedGrammar:
    symbols: SymbolTable
    start: object
    productions: tuple
    # stack symbol -> (lhs, rhs) of its unique push rule, set by label_pushes
    push_labels: dict = field(default_factory=dict)

    def alpha(self, f):
        return self.push_labels[f][0]

    def beta(self, f):
        return self.push_labels[f][1]

    def size(self):
        n = len(self.symbols.nonterminals) + len(self.productions)
        n += sum(len(p.word) for p in self.productions
                 if isinstance(p, TerminalRule))
        return n


@dataclass
class SugaredGrammar:
    symbols: SymbolTable
    start: object
    productions: tuple
    dfas: dict = field(default_factory=dict)


class GrammarError(ValueError):
    """Raised on unusable grammar input (parse errors, failed validation)."""


# ---------------------------------------------------------------------------
# parsing


def _tokenize_word(text, terminals):
    """Split a quoted word into terminal letters (greedy longest match)."""
    letters = []
    i = 0
    toks = sorted(terminals, key=len, reverse=True)
    while i < len(text):
        for t in toks:
            if text.startswith(t, i):
                letters.append(t)
                i += len(t)
                break
        else:
            raise GrammarError(f"letter at {text[i:]!r} is not a declared terminal")
    return "".join(letters)


def parse_grammar(text):
    """Parse the textual grammar format into a SugaredGrammar."""
    start = None
    terminals = []
    stack_syms = []
    raw_rules = []
    dfas = {}

    # join dfa blocks spanning several lines
    lines = []
    buf = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if buf is not None:
            buf += " " + line.strip()
            if "}" in line:
                lines.append(buf)
                buf = None
            continue
        if not line.strip():
            continue
        if line.strip().startswith("dfa ") and "}" not in line:
            buf = line.strip()
        else:
            lines.append(line.strip())
    if buf is not None:
        raise GrammarError("unterminated dfa block")

    for line in lines:
        toks = line.split()
        if toks[0] == "start":
            if len(toks) != 2:
                raise GrammarError(f"malformed start line: {line!r}")
            start = toks[1]
        elif toks[0] == "terminals":
            terminals.extend(toks[1:])
        elif toks[0] == "stack":
            stack_syms.extend(toks[1:])
        elif toks[0] == "dfa":
            dfa = _parse_dfa(line)
            dfas[dfa.name] = dfa
        else:
            raw_rules.append(line)

    if start is None:
        raise GrammarError("missing start line")
    terminals = list(dict.fromkeys(terminals))
    stack_syms = list(dict.fromkeys(stack_syms))

    # first pass: left-hand sides declare the nonterminals
    lhs_syms = []
    for line in raw_rules:
        if "->" not in line:
            raise GrammarError(f"malformed rule: {line!r}")
        lhs_part = line.split("->", 1)[0].split()
        if not lhs_part:
            raise GrammarError(f"missing left-hand side: {line!r}")
        lhs_syms.append(lhs_part[0])
    nonterminals = list(dict.fromkeys([start] + lhs_syms))
    nts = set(nonterminals)
    terms = set(terminals)
    stacks = set(stack_syms)

    prods = []
    for line in raw_rules:
        lhs_part, rhs_part = (s.strip() for s in line.split("->", 1))
        lhs_toks = lhs_part.split()
        rhs_toks = rhs_part.split()
        lhs = lhs_toks[0]
        if lhs not in nts:
            raise GrammarError(f"undeclared nonterminal {lhs!r}")

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
            if tgt not in nts:
                raise GrammarError(f"undeclared nonterminal {tgt!r}")
            for nm in names:
                if nm not in dfas:
                    raise GrammarError(f"unknown dfa {nm!r}")
            if not names:
                raise GrammarError(f"check rule without dfas: {line!r}")
            prods.append(CheckRule(lhs, tgt, tuple(names)))
            continue

        if len(rhs_toks) == 3 and rhs_toks[1] == "+":
            tgt, sym = rhs_toks[0], rhs_toks[2]
            if pop_sym is not None:
                raise GrammarError(f"push rule cannot pop: {line!r}")
            if tgt not in nts:
                raise GrammarError(f"undeclared nonterminal {tgt!r}")
            if sym not in stacks:
                raise GrammarError(f"undeclared stack symbol {sym!r}")
            prods.append(PushRule(lhs, tgt, sym))
            continue

        # general right-hand side: quoted words and bare symbols
        rhs = []
        for tok in rhs_toks:
            if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
                for letter in _tokenize_word(tok[1:-1], terms):
                    rhs.append(letter)
            elif tok in terms:
                rhs.append(tok)
            elif tok in nts:
                rhs.append(tok)
            else:
                raise GrammarError(f"undeclared symbol {tok!r} in {line!r}")
        if pop_sym is not None:
            prods.append(PopSugarRule(lhs, pop_sym, tuple(rhs)))
        else:
            prods.append(PlainSugarRule(lhs, tuple(rhs)))

    table = SymbolTable(frozenset(nonterminals), frozenset(terminals),
                        frozenset(stack_syms))
    return SugaredGrammar(table, start, tuple(prods), dfas)


def _parse_dfa(line):
    # dfa name { states q0 q1; init q0; final q1; q0 f q1; }
    head, brace, rest = line.partition("{")
    name_toks = head.split()[1:]
    if not brace or len(name_toks) != 1:
        raise GrammarError(f"malformed dfa header: {line!r}")
    name = name_toks[0]
    body = rest.rsplit("}", 1)[0]
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
# desugaring


def desugar(sg):
    """Rewrite a SugaredGrammar into an IndexedGrammar with the four kinds.

    Check rules become a chain of binary rules whose right children run the
    DFA over the stack via pop rules.  General right-hand sides become
    binary chains.  Single-nonterminal right-hand sides are removed by
    copying the productions of the target (unit elimination), so no helper
    nonterminal is introduced for them.
    """
    terms = sg.symbols.terminals
    nts = set(sg.symbols.nonterminals)
    stacks = set(sg.symbols.stack_symbols)
    core = []        # core rules
    units = []       # (lhs, rhs) unit pairs awaiting elimination
    fresh_nts = []

    def fresh(name):
        if name in nts:
            raise GrammarError(f"fresh name {name!r} clashes with a symbol")
        nts.add(name)
        fresh_nts.append(name)
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
        name = f"E.{dfa.name}.{q}"
        if name not in nts:
            fresh(name)
            for (p, a, r) in dfa.transitions:
                if a not in stacks:
                    raise GrammarError(
                        f"dfa {dfa.name}: letter {a!r} is not a stack symbol")
            for (p, a, r) in dfa.transitions:
                if p == q:
                    core.append(PopRule(name, a, f"E.{dfa.name}.{r}"))
                    dfa_state_nt(dfa, r)
            if q in dfa.finals:
                core.append(TerminalRule(name, ""))
        return name

    for idx, prod in enumerate(sg.productions):
        if isinstance(prod, (TerminalRule, BinaryRule, PushRule, PopRule)):
            core.append(prod)
        elif isinstance(prod, PlainSugarRule):
            add_general(prod.lhs, prod.rhs, idx)
        elif isinstance(prod, PopSugarRule):
            if len(prod.rhs) == 1 and prod.rhs[0] in nts:
                core.append(PopRule(prod.lhs, prod.sym, prod.rhs[0]))
            else:
                cont = fresh(f"P.{idx}")
                core.append(PopRule(prod.lhs, prod.sym, cont))
                add_general(cont, prod.rhs, idx)
        elif isinstance(prod, CheckRule):
            r = len(prod.dfa_names)
            d_names = [fresh(f"D{i}.{idx}") for i in range(1, r + 1)]
            c_names = [fresh(f"C{i}.{idx}") for i in range(1, r + 1)]
            core.append(BinaryRule(prod.lhs, d_names[0], c_names[0]))
            for i in range(1, r):
                core.append(BinaryRule(d_names[i - 1], d_names[i], c_names[i]))
            units.append((d_names[r - 1], prod.rhs))
            for i, nm in enumerate(prod.dfa_names):
                dfa = sg.dfas[nm]
                units.append((c_names[i], dfa_state_nt(dfa, dfa.init)))
        else:
            raise GrammarError(f"unknown production kind: {prod!r}")

    # unit elimination: transitive closure of unit pairs, then copy rules
    unit_map = {}
    for (a, b) in units:
        unit_map.setdefault(a, set()).add(b)
    closure = {a: set(bs) for a, bs in unit_map.items()}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure[a]):
                for c in closure.get(b, ()):
                    if c not in closure[a]:
                        closure[a].add(c)
                        changed = True
    by_lhs = {}
    for p in core:
        by_lhs.setdefault(p.lhs, []).append(p)
    final = list(core)
    for a in sorted(closure):
        for b in sorted(closure[a]):
            if b == a:
                continue
            for p in by_lhs.get(b, ()):
                final.append(replace(p, lhs=a))

    table = SymbolTable(frozenset(nts), terms, frozenset(stacks))
    return IndexedGrammar(table, sg.start, tuple(final))


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

    rename = {}   # production index -> new symbol for its push
    copies = {}   # old symbol -> list of new symbols
    stack_syms = set()
    for f in sorted(g.symbols.stack_symbols, key=str):
        idxs = pushes_of.get(f, [])
        if not idxs:
            continue
        if len(idxs) == 1:
            copies[f] = [f]
            stack_syms.add(f)
        else:
            names = []
            for k, i in enumerate(idxs, start=1):
                nf = f"{f}.{k}" if isinstance(f, str) else (f, k)
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

    table = SymbolTable(g.symbols.nonterminals, g.symbols.terminals,
                        frozenset(stack_syms))
    return IndexedGrammar(table, g.start, tuple(prods), labels)


# ---------------------------------------------------------------------------
# validation and printing


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


def _sym_str(s):
    return s if isinstance(s, str) else repr(s)


def print_grammar(g):
    """Render an IndexedGrammar in the textual format (parse round-trips)."""
    lines = [f"start {_sym_str(g.start)}"]
    if g.symbols.terminals:
        lines.append("terminals " +
                     " ".join(sorted(map(_sym_str, g.symbols.terminals))))
    if g.symbols.stack_symbols:
        lines.append("stack " +
                     " ".join(sorted(map(_sym_str, g.symbols.stack_symbols))))
    for p in g.productions:
        if isinstance(p, TerminalRule):
            lines.append(f'{_sym_str(p.lhs)} -> "{p.word}"')
        elif isinstance(p, BinaryRule):
            lines.append(f"{_sym_str(p.lhs)} -> {_sym_str(p.left)} "
                         f"{_sym_str(p.right)}")
        elif isinstance(p, PushRule):
            lines.append(f"{_sym_str(p.lhs)} -> {_sym_str(p.rhs)} + "
                         f"{_sym_str(p.sym)}")
        elif isinstance(p, PopRule):
            lines.append(f"{_sym_str(p.lhs)} - {_sym_str(p.sym)} -> "
                         f"{_sym_str(p.rhs)}")
        else:
            raise GrammarError(f"cannot print sugared production {p!r}")
    return "\n".join(lines) + "\n"


def grammar_from_text(text):
    """Parse, desugar and label in one step."""
    return label_pushes(desugar(parse_grammar(text)))
