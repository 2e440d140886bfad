"""The action rule keyed by the set it acts on, the reference for the
analysis's act keys.

`ixdcl.analysis` keys act(f, X) by what f's pop rules read of X,
cl(X) & R_f.  `PerSetAnalysis` keys it by X itself: ("act", f, X) reads
("cl", X), then f's pop rules, then the push rules at its snapshot, and
a push rule in a cl(X) pass reads act(g, X).  Only `cl` and `act_mask`
(and so `universe`) run on these keys.
"""

from ixdcl.analysis import Analysis


class PerSetAnalysis(Analysis):
    """The analysis with one act key per set X."""

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
