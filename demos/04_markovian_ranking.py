"""The Markov-chain ranking: leagues, title passing, stationary shares.

Think of a perpetual one-board tournament.  The current title holder
stays at the board; a random challenger sits down; whoever wins (a draw
dethrones the holder) keeps the title.  In the long run the share of
games an alternative holds the title measures its strength.  Alternatives
are pre-sorted into leagues by iterated weak-top-cycle extraction, which
makes each league's chain irreducible and its long-run shares strictly
positive and unique.
"""

from fractions import Fraction

import numpy as np

from majorityrank import (
    AlternativeSet,
    MajorityStructure,
    leagues,
    markovian_ranking,
    stationary,
    transition_matrix,
)

# the five-alternative worked example: x5 strong but not invincible
names = AlternativeSet(("x1", "x2", "x3", "x4", "x5"))
beats = np.array([
    [0, 1, 0, 1, 0],
    [0, 0, 1, 1, 0],
    [1, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [1, 1, 1, 0, 0],
], dtype=bool)
structure = MajorityStructure(names, beats)

partition = leagues(structure)
print("leagues:", [sorted(league) for league in partition.leagues])

tm = transition_matrix(structure, partition.leagues[0])
print("\ntransition matrix (columns sum to 1):")
print(tm.matrix)

vector = stationary(tm)
print("\nlong-run title shares (exact rationals):")
for name in vector.members:
    share = vector.probabilities[name]
    print(f"  {name}: {share} = {float(share):.4f}")
assert sum(vector.probabilities.values()) == Fraction(1)

# the exact vector is a fixed point of the chain: W p = p
p = vector.as_floats()
print("\nresidual max|W p - p|:", np.abs(tm.matrix @ p - p).max())

ranking = markovian_ranking(structure)
print("\nfinal ranking:", dict(sorted(ranking.ranks.items())))
print("x5 holds the title three games in seven; the rest split the remainder evenly.")
