"""Braid words and the combinatorics of their closures.

A braid on n strands is a word in the generators s_1 .. s_{n-1}; the letter
+i stands for s_i and -i for its inverse.  Links enter the package only as
braid closures, so everything a diagram would provide (component count,
writhe, linking numbers) is read off the word directly.

Composition convention, shared by every representation downstream: words act
left to right — the first letter acts first.  Permutation images are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import UsageError


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    >>> BraidWord(2, (1, 1, 1)).strands
    2
    >>> BraidWord(2, (2,))
    Traceback (most recent call last):
        ...
    qll.algebra.UsageError: letter 2 needs at least 3 strands
    """

    strands: int
    word: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise UsageError("strand count must be >= 1")
        object.__setattr__(self, "word", tuple(self.word))
        for letter in self.word:
            if not isinstance(letter, int) or letter == 0:
                raise UsageError("letters must be nonzero integers, got %r" % (letter,))
            if abs(letter) >= self.strands:
                raise UsageError("letter %d needs at least %d strands"
                                 % (letter, abs(letter) + 1))

    def __len__(self):
        return len(self.word)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}; ``images[k-1]`` is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise UsageError("not a permutation of 1..%d: %r" % (n, self.images))

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (left-to-right composition)."""
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self.images[start - 1]
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self.images[k - 1]
            out.append(tuple(cyc))
        return out


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    >>> parse_braid("1 -2 1 -2", 3).word
    (1, -2, 1, -2)
    >>> parse_braid("", 3).word
    ()
    """
    letters = []
    for token in text.split():
        try:
            letters.append(int(token))
        except ValueError:
            raise UsageError("malformed braid letter %r" % token) from None
    return BraidWord(strands, tuple(letters))


def _final_positions(b: BraidWord) -> list[int]:
    # occ[p] = index of the strand currently at position p (0-based)
    occ = list(range(b.strands))
    for letter in b.word:
        i = abs(letter)
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    final = [0] * b.strands
    for pos, strand in enumerate(occ):
        final[strand] = pos
    return final


def underlying_permutation(b: BraidWord) -> Permutation:
    """Image of the braid in the symmetric group; signs are irrelevant."""
    return Permutation(tuple(p + 1 for p in _final_positions(b)))


def closure_components(b: BraidWord) -> int:
    """Number of link components of the braid closure."""
    return len(underlying_permutation(b).cycles())


def writhe(b: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in b.word)


def component_of_strand(b: BraidWord) -> list[int]:
    """Map each strand (0-based start position) to a component index.

    Components are numbered by their smallest starting position.
    """
    comp = [-1] * b.strands
    for idx, cyc in enumerate(underlying_permutation(b).cycles()):
        for k in cyc:
            comp[k - 1] = idx
    return comp


def linking_matrix(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers of the closure's components; zero diagonal.

    Each off-diagonal entry is half the signed count of crossings between
    strands of the two components.
    """
    comp = component_of_strand(b)
    c = closure_components(b)
    acc = [[0] * c for _ in range(c)]
    occ = list(range(b.strands))
    for letter in b.word:
        i = abs(letter)
        a, d = occ[i - 1], occ[i]
        ca, cd = comp[a], comp[d]
        if ca != cd:
            sign = 1 if letter > 0 else -1
            acc[ca][cd] += sign
            acc[cd][ca] += sign
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    for row in acc:
        for x in row:
            assert x % 2 == 0, "inter-component crossings must pair up"
    return tuple(tuple(x // 2 for x in row) for row in acc)


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple(-x for x in reversed(b.word)))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise UsageError("strand counts differ: %d vs %d" % (a.strands, b.strands))
    return BraidWord(a.strands, a.word + b.word)


def conjugate(b: BraidWord, g: BraidWord) -> BraidWord:
    """g · b · g⁻¹ at the same strand count (a Markov move on closures)."""
    return concat(concat(g, b), inverse(g))


def stabilize(b: BraidWord, sign: int) -> BraidWord:
    """b · s_n^{±1} on n+1 strands (the other Markov move)."""
    if sign not in (1, -1):
        raise UsageError("stabilization sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.word + (sign * b.strands,))


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent letter/inverse pairs; the braid element is unchanged."""
    out: list[int] = []
    for letter in b.word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return BraidWord(b.strands, tuple(out))
