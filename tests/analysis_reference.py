"""Earlier rules of the analysis, the references for its actions and
its focus matrices.

`ixdcl.analysis` solves act(f, X) as the cl key of pre_f(cl(X)).
`PerSetAnalysis` solves it as a key ("act", f, X) of its own, keyed by
X itself: it starts at the terminal lhs, reads ("cl", X), then f's pop
rules, then the push rules at its snapshot, and a push rule in a cl(X)
pass reads act(g, X).  Only `cl` and `act_mask` (and so `universe`) run
on these keys, and an act key does not count against the cap.

`ixdcl.analysis` composes a focus matrix M[f, X] from same-level foci.
`FocKeyedAnalysis` solves it as a key ("foc", f, X) of its own: its base
rows are f's pops followed by efoc(X), and its split and push rules run
at level act(f, X), a push g reading ("foc", g, act(f, X)); efoc(X)
reads ("foc", f, X) for each push rule A -> R f.
"""

from ixdcl.analysis import Analysis, gather


class PerSetAnalysis(Analysis):
    """The analysis with one act key per set X."""

    def _init(self, key):
        if key[0] == "act":
            return self._term
        return super()._init(key)

    def _apply_pushes(self, cur, X):
        for f, (lhs, rules) in self._pushes.items():
            if cur & lhs != lhs:
                gen = self._need(("act", f, X))
                for _, _, a, r in rules:
                    if gen & r:
                        cur |= a
        return cur

    def _eval_cl(self, cur, X):
        return self._apply_pushes(self._close(cur), X)

    def _eval_act(self, cur, f, X):
        cl = self._need(("cl", X))
        for _, _, a, r in self._pops.get(f, ()):
            if cl & r:
                cur |= a
        cur = self._close(cur)
        return self._apply_pushes(cur, cur)   # the snapshot S is cur

    def act_mask(self, f, x):
        return self._solved(("act", f, x))

    def keyed_sets(self):
        """The masks X of the act keys solved so far."""
        return {key[2] for key in self._val if key[0] == "act"}


class FocKeyedAnalysis(Analysis):
    """The analysis with one key per focus matrix M[f, X]."""

    def _init(self, key):
        if key[0] == "foc":
            return (0,) * len(self._unit)
        return super()._init(key)

    def _eval_efoc(self, cur, X):
        cl = self._need(("cl", X))
        rows = list(cur)
        for a, c, d in self._split:
            if cl & d:
                rows[a] |= rows[c]
        for f, (_, rules) in self._pushes.items():
            m = self._need(("foc", f, X))
            for a, r, _, _ in rules:
                rows[a] |= m[r]
        return tuple(rows)

    def _eval_foc(self, cur, f, X):
        ef = self._need(("efoc", X))
        gen = self._need(self._act_key(f, self._need(("cl", X))))
        rows = list(cur)
        for a, r, _, _ in self._pops.get(f, ()):
            rows[a] |= ef[r]
        for a, c, d in self._split:
            if gen & d:
                rows[a] |= rows[c]
        for g, (_, rules) in self._pushes.items():
            m = self._need(("foc", g, gen))
            for a, r, _, _ in rules:
                rows[a] |= gather(rows, m[r])
        return tuple(rows)

    def focus_rows(self, f, x):
        return self._solved(("foc", f, x))
