"""Three Copeland scorings and when they disagree.

A worked five-alternative election first: three voters, three rotations
of fortunes; version 1 scores wins minus losses, version 2 counts wins,
version 3 counts non-losses.  Without ties in the majority relation all
three orderings coincide.  The second act builds a tied structure where
the three versions produce three genuinely different rankings.
"""

import numpy as np

from majorityrank import (
    AlternativeSet,
    Criterion,
    MajorityStructure,
    Profile,
    build_majority,
    copeland_ranking,
    copeland_scores,
    from_scores,
)

names = AlternativeSet(("x1", "x2", "x3", "x4", "x5"))
orders = [
    ("x1", "x2", "x3", "x4", "x5"),
    ("x4", "x5", "x2", "x3", "x1"),
    ("x5", "x3", "x1", "x2", "x4"),
]
profile = Profile(names, [
    Criterion(f"voter{i}", 1, from_scores(names, {n: float(5 - pos) for pos, n in enumerate(order)}))
    for i, order in enumerate(orders)
])
structure = build_majority(profile)

print("scores per version (wins-losses / wins / non-losses):")
for version in (1, 2, 3):
    scores = copeland_scores(structure, version).scores
    print(f"  v{version}: " + "  ".join(f"{n}={scores[n]:>2}" for n in names))

print("\nranking by wins (version 2):")
ranking = copeland_ranking(structure, 2)
for rank in sorted(set(ranking.ranks.values())):
    tied = sorted(n for n in names if ranking.ranks[n] == rank)
    print(f"  rank {rank}: {', '.join(tied)}")
print("x5 wins three duels and tops the list; x4 wins one and drops last.")
print("no ties here, so all three versions induce this same ranking:",
      all(copeland_ranking(structure, v).ranks == ranking.ranks for v in (1, 2, 3)))

# --- act two: ties split the versions apart -------------------------------
# duels: b beats a; a beats c and d; every other pair is drawn
quad = AlternativeSet(("a", "b", "c", "d"))
beats = np.zeros((4, 4), dtype=bool)
beats[1, 0] = True          # b beats a
beats[0, 2] = beats[0, 3] = True  # a beats c, d
tied_structure = MajorityStructure(quad, beats)

print("\ntied structure (b beats a; a beats c and d; the rest drawn):")
for version in (1, 2, 3):
    ranks = copeland_ranking(tied_structure, version).ranks
    print(f"  v{version} ranking: {dict(sorted(ranks.items()))}")
print("wins favour the busy fighter a, non-losses favour the unbeaten b,")
print("and the balance of version 1 calls them even.")
