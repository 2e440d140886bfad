"""Uncounted ideal arithmetic, the reference for the counted form.

An uncounted ideal is a tuple of atoms ("l", letter) for one optional
letter and ("s", frozenset) for a star block.  `unfold` spells a counted
run ("l", c, k) out as k such letter atoms, and `fold` groups them back.
"""

from itertools import groupby


def unfold(ideal):
    out = []
    for atom in ideal:
        if atom[0] == "l":
            out += [("l", atom[1])] * atom[2]
        else:
            out.append(atom)
    return tuple(out)


def fold(atoms):
    out = []
    for key, run in groupby(atoms):
        if key[0] == "l":
            out.append(("l", key[1], len(list(run))))
        else:
            out += run
    return tuple(out)


def norm_ideal(atoms):
    """Drop empty star blocks and atoms absorbed by an adjacent star."""
    out = []
    for atom in atoms:
        kind, val = atom
        if kind == "s":
            if not val:
                continue
            while out:
                pk, pv = out[-1]
                if (pk == "l" and pv in val) or (pk == "s" and pv <= val):
                    out.pop()
                else:
                    break
            if out and out[-1][0] == "s" and val <= out[-1][1]:
                continue
        else:
            if out and out[-1][0] == "s" and val in out[-1][1]:
                continue
        out.append(atom)
    return tuple(out)


def ideal_le(small, big):
    """Ideal inclusion by greedy left-to-right matching."""
    j = 0
    for kind, val in small:
        ok = False
        while j < len(big):
            bk, bv = big[j]
            if bk == "s":
                if kind == "l" and val in bv:
                    ok = True
                    break
                if kind == "s" and val <= bv:
                    ok = True
                    break
                j += 1
            else:
                j += 1
                if kind == "l" and bv == val:
                    ok = True
                    break
        if not ok:
            return False
    return True

