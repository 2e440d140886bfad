"""Test-side views of summaries: structural keys, the top letter, and
pushing a whole word.

The factory hash-conses by the identities of the parts, so two factories
never share a key; these keys spell a summary out in full, which lets
goldens and determinism checks compare summaries across factories.
"""

from ixdcl.monoid import element_key


def atom_key(a):
    return ("atom", a.letter, summary_key(a.tail))


def block_key(b):
    return ("block",
            tuple(tuple(map(atom_key, g)) for g in b.us),
            element_key(b.e),
            tuple(tuple(map(atom_key, g)) for g in b.vs),
            tuple(map(atom_key, b.w)))


def summary_key(s):
    return ("summary",
            summary_key(s.sub) if s.sub is not None else None,
            tuple(map(atom_key, s.atoms)),
            tuple(map(block_key, s.blocks)))


def top_letter(s):
    """The leftmost (topmost) annotated letter of the summarized stack."""
    if s.sub is not None and not s.sub.is_empty():
        return top_letter(s.sub)
    if s.atoms:
        return s.atoms[0].letter
    if s.blocks:
        return s.blocks[0].us[0][0].letter
    return None


def push_word(factory, word, sigma):
    """Push an annotated stack word (topmost letter first)."""
    for letter in reversed(word):
        sigma = factory.push_letter(letter, sigma)
    return sigma
