"""Tournament solutions and select-and-exclude sorting.

When the majority relation has cycles, no alternative may be undominated,
so "the best" needs a stronger notion.  Three solution concepts pick a
non-empty elite from any subset: the uncovered set (UC), the union of
minimal externally stable sets (MES), and the weak top cycle (WTC).
Sorting extracts the elite, removes it, and repeats: rank 1, rank 2, ...
"""

import numpy as np

from majorityrank import (
    AlternativeSet,
    MajorityStructure,
    is_externally_stable,
    mes_union,
    minimal_stable_set_containing,
    sort_by_solution,
    uncovered_set,
    weak_top_cycle,
)

# a two-tier tournament: a spinning top {a, b, c} over a tail d -> e
names = AlternativeSet(("a", "b", "c", "d", "e"))
beats = np.zeros((5, 5), dtype=bool)
for winner, loser in [("a", "b"), ("b", "c"), ("c", "a")]:  # the cycle
    beats[names.index(winner), names.index(loser)] = True
for top in ("a", "b", "c"):
    for low in ("d", "e"):
        beats[names.index(top), names.index(low)] = True
beats[names.index("d"), names.index("e")] = True
structure = MajorityStructure(names, beats)

print("elites of the full set:")
print("  uncovered set:", sorted(uncovered_set(structure).members))
print("  minimal stable union:", sorted(mes_union(structure).members))
print("  weak top cycle:", sorted(weak_top_cycle(structure).members))

# external stability, inspected by hand: {a} cannot stand alone
print("\n{a} externally stable?", is_externally_stable(structure, {"a"}))
print("{a, b} externally stable?", is_externally_stable(structure, {"a", "b"}))
print("a minimal stable set containing c:", sorted(minimal_stable_set_containing(structure, "c")))

# the sorting turns the solution into a full ranking
for kind in ("UC", "MES", "WTC"):
    sorted_classes = sort_by_solution(structure, kind)
    rendered = " > ".join("{" + ", ".join(sorted(cls)) + "}" for cls in sorted_classes.classes)
    print(f"\n{kind} sorting: {rendered}")
    print(f"  as ranks: {dict(sorted(sorted_classes.ranking().ranks.items()))}")

# solutions restrict cleanly to subsets: drop the cycle, the tail emerges
print("\nuncovered set within {c, d, e}:", sorted(uncovered_set(structure, {"c", "d", "e"}).members))
