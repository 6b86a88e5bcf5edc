"""End-to-end tour of the bundled 135-country competitiveness study.

Loads the bundled indicator ranks and vote weights, rebuilds the majority
relation, recomputes every aggregate ranking, and compares the outcome
with the published reference tables.  The same pipeline is available as
``majorityrank reproduce`` on the command line.
"""

from majorityrank import (
    build_majority,
    build_profile,
    bundled_fixtures_dir,
    copeland_ranking,
    cycle_counts,
    kendall_tau_b,
    leagues,
    load_ranks,
    load_weights,
    markovian_ranking,
    run_reproduce,
    sort_by_solution,
)

fixtures = bundled_fixtures_dir()
alternatives, criteria_rankings = load_ranks(fixtures / "table6_criteria.csv")
weights = load_weights(fixtures / "weights.cfg")
print(f"{len(alternatives)} countries, {len(criteria_rankings)} criteria, "
      f"{weights.total_weight} votes total")

profile = build_profile(alternatives, criteria_rankings, weights)
structure = build_majority(profile)
print(f"tied pairs in the majority relation: {int(structure.ties.sum()) // 2}")
print("cycles:", cycle_counts(structure),
      "- the majority relation is nowhere near transitive")

aggregates = {
    "Copeland1": copeland_ranking(structure, 1),
    "Copeland2": copeland_ranking(structure, 2),
    "Copeland3": copeland_ranking(structure, 3),
    "UC": sort_by_solution(structure, "UC").ranking(),
    "MES": sort_by_solution(structure, "MES").ranking(),
    "Markovian": markovian_ranking(structure),
}

print(f"\nleague structure for the Markov chain: "
      f"{[len(league) for league in leagues(structure).leagues]} (one big league)")

print("\naggregate rankings, top five countries each:")
for name, ranking in aggregates.items():
    top = sorted(alternatives, key=lambda c: (ranking.ranks[c], c))[:5]
    print(f"  {name:<10} positions={ranking.distinct_positions():>3}  {', '.join(top)}")

_, published = load_ranks(fixtures / "table6_aggregates.csv")
print("\nagreement with the published columns (tau-b):")
for name, ranking in aggregates.items():
    print(f"  {name:<10} {kendall_tau_b(ranking, published[name]):.4f}")

# the sorting methods give coarse, readable tiers; the Markov chain
# discriminates all 135 countries
uc_first = sorted(c for c in alternatives if aggregates["UC"].ranks[c] == 1)
print(f"\nfirst uncovered-set tier: {', '.join(uc_first)}")

print("\nfull reference diff (the reproduce command):")
report = run_reproduce()
print(report.format_text())
