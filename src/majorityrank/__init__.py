"""Majority-rule rank aggregation and analysis.

Aggregates weighted criteria rankings through the pairwise majority
relation: Copeland scorings, tournament-solution sorting (uncovered set,
minimal externally stable sets, weak top cycle) and a Markov-chain
ranking.  Includes tie-aware rank correlation (Kendall tau-b, coinciding
pair share), a meta-ranking of candidate rankings by weighted closeness
to the criteria, the cardinal CIP index, and a bundled 135-country case
study with a full reproduction pipeline.
"""

from .cip import INDICATORS, IndicatorRecord, cip_index, cip_ranking
from .copeland import ScoreVector, copeland_ranking, copeland_scores
from .core import (
    COMPETITION,
    DENSE,
    AlternativeSet,
    Criterion,
    Profile,
    Ranking,
    from_scores,
)
from .correlation import (
    COINCIDING,
    TAU_B,
    CorrelationMatrix,
    PairStats,
    coinciding_share,
    correlation_matrix,
    kendall_tau_b,
    pair_stats,
)
from .errors import (
    DegenerateRankingError,
    InputError,
    NumericalError,
    SingletonLeagueError,
    SizeLimitError,
)
from .io import (
    ReproReport,
    WeightsConfig,
    build_profile,
    bundled_fixtures_dir,
    load_indicators,
    load_ranks,
    load_weights,
    run_reproduce,
    save_ranking,
)
from .majority import MajorityStructure, Sections, build_majority, count_cycles, cycle_counts, sections
from .markovian import (
    LeaguePartition,
    StationaryVector,
    TransitionMatrix,
    leagues,
    markovian_ranking,
    stationary,
    transition_matrix,
)
from .metarank import (
    CorrelationVector,
    MetaComparison,
    closest_weak_order,
    correlation_vector,
    minimum_distance,
    optimal_linear_orders,
    optimal_order_count,
    rankings_majority,
)
from .solutions import (
    KINDS,
    MES,
    UC,
    WTC,
    SolutionSet,
    SortedClasses,
    is_externally_stable,
    mes_union,
    minimal_stable_set_containing,
    solve,
    sort_by_solution,
    uncovered_set,
    weak_top_cycle,
)

__version__ = "0.1.0"
