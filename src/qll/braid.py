"""Braid words and the combinatorics of their closures.

A braid on n strands is a word in the generators s_1 .. s_{n-1}; the letter
+i stands for s_i and -i for its inverse.  Links enter the package only as
braid closures, so everything a diagram would provide (component count,
writhe, linking numbers) is read off the word directly.

Composition convention, shared by every representation downstream: words act
left to right — the first letter acts first.  Permutation images are 1-based.
"""

from __future__ import annotations

from collections import deque
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


def _cancel(n: int, word: list[int]) -> tuple[list[int], list[deque]]:
    """Cyclic cancellation to a fixpoint.  Returns the word with 0 at every
    deleted letter and, per generator index, the positions of its surviving
    letters in order (indices 0 and n stay empty).

    One left-to-right pass cancels a letter against the latest surviving
    letter of its index when that is its inverse and no surviving letter of
    a neighbouring index comes after it.  Afterwards the first and last
    letters of an index cancel round the end of the word when they are
    inverse and every letter of a neighbouring index lies between them;
    each such deletion can enable one at its own index or a neighbouring
    one, and at no index does it enable one of the pass's kind."""
    out: list[int] = []
    live = [deque() for _ in range(n + 1)]
    for letter in word:
        i = abs(letter)
        here, below, above = live[i], live[i - 1], live[i + 1]
        if (here and out[here[-1]] == -letter
                and (not below or below[-1] < here[-1])
                and (not above or above[-1] < here[-1])):
            out[here.pop()] = 0
        else:
            here.append(len(out))
            out.append(letter)
    todo = list(range(1, n))
    while todo:
        i = todo.pop()
        here = live[i]
        if len(here) < 2:
            continue
        first, last = here[0], here[-1]
        if out[first] == -out[last] and all(
                not s or (first < s[0] and s[-1] < last) for s in (live[i - 1], live[i + 1])):
            out[here.popleft()] = 0
            out[here.pop()] = 0
            todo += [j for j in (i - 1, i, i + 1) if 0 < j < n]
    return out, live


def simplify(b: BraidWord) -> BraidWord:
    """A presentation of the same closure on at most as many strands and
    letters, by two Markov moves repeated to a fixpoint: cancelling x and a
    later x^-1 when every letter between them, one way round the cyclic
    word, commutes with x; and destabilisation, which deletes s_{n-1}^{+-1}
    or s_1^{+-1} when it occurs exactly once and drops that strand (the
    indices shift down after s_1).  Letters are deleted in place, so the
    survivors keep their order and the word is never rotated.  Each
    destabilisation is followed by one more cancellation pass, so the cost
    is O(n (n + m)).

    >>> simplify(BraidWord(4, (3, 1, 3, 2, -3, 2, -3, 3)))
    BraidWord(strands=3, word=(2, 2, 1, -2, 1))
    """
    n, word = b.strands, list(b.word)
    while True:
        out, live = _cancel(n, word)
        if len(live[n - 1]) == 1:
            out[live[n - 1][0]] = 0
            word = [x for x in out if x]
        elif len(live[1]) == 1:
            out[live[1][0]] = 0
            word = [x - 1 if x > 0 else x + 1 for x in out if x]
        else:
            return BraidWord(n, tuple(x for x in out if x))
        n -= 1
