"""One worklist solver for demand-driven least fixpoints.

A subclass names its keys and gives two hooks: `_init(key)`, the first
value of a new key, and `_eval(key, old)`, the key's local rule, which
reads keys through `_need` and returns the new value.  Reading a
missing key creates and queues it; the key under evaluation is recorded
as a reader on its first read.  The solver has one rule: a key whose
value changed queues its readers and nothing else, so a rule that
builds on its own value reads it through `_need` or runs until it
settles.  Only keys whose inputs grew are evaluated again (a local
solver in the sense of Fecht & Seidl, "A faster solver for general
systems of equations", SCP 1999).  The queue is first in first out, and
the readers of a key are kept in a dict in the order they first read
it, so the order of evaluation does not depend on PYTHONHASHSEED.
The module also holds Tarjan's `sccs`, which later stages share.
"""

from collections import deque


class Solver:
    """The solver's state; a subclass adds `_init` and `_eval`."""

    def __init__(self):
        self._val = {}          # key -> its current value
        self._readers = {}      # key -> the keys that read it, in order
        self._todo = deque()    # queued keys, first in first out
        self._queued = set()
        self._current = None    # the key under evaluation

    def _push(self, key):
        if key not in self._queued:
            self._queued.add(key)
            self._todo.append(key)

    def _need(self, key):
        """key's current value; a missing key is created and queued."""
        val = self._val.get(key)
        if val is None:
            val = self._val[key] = self._init(key)
            self._readers[key] = {}
            self._push(key)
        if self._current is not None:
            self._readers[key].setdefault(self._current)
        return val

    def _solve(self):
        while self._todo:
            key = self._todo.popleft()
            self._queued.discard(key)
            old = self._val[key]
            self._current = key
            new = self._eval(key, old)
            self._current = None
            if new != old:
                self._val[key] = new
                for r in self._readers[key]:
                    self._push(r)

    def _solved(self, key):
        self._need(key)
        self._solve()
        return self._val[key]


def sccs(adj, roots):
    """Tarjan's strongly connected components of the graph on 0..n-1
    whose successors of v are adj[v], from the given roots, without
    recursion.  Each component is emitted after every component it
    reaches.  Emitted nodes get index n, so no on-stack flag is kept."""
    n = len(adj)
    index, low = [-1] * n, [0] * n
    stack, out, counter = [], [], 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return out
