"""Exact collinear-triple computations over the modular grid Z_n x Z_n."""

from .census import (
    TripleCensus,
    count_quadruples,
    count_triples,
    line_decomposition,
    slope_histogram,
    transversal_points,
    validate_transversal,
)
from .constructions import (
    MobiusParams,
    cubic_permutation,
    g_permutation,
    inverse_permutation,
    mobius_permutation,
)
from .geometry import (
    DEFAULT_MODE,
    INF,
    CollinearityMode,
    ModularLine,
    collinear_points,
    collinear_set,
    collinear_triple,
    line_through,
    pair_slope,
)
from .modring import is_prime, mod_inverse
from .packing import (
    PackingResult,
    SpreadReport,
    canonical_optimal_partition,
    greedy_packing,
    jensen_lower_bound,
    psi_lower_bound,
    spread_report,
    t_closed_form,
    t_exact,
    tau,
    trip_cost,
)
from .search import (
    SearchBudget,
    SearchOutcome,
    ct0_subsets,
    lex_least_with_count,
    max_triple_free_subset,
    max_triples_quadfree_transversal,
    psi,
    psi_brute_force,
    verify_theorem1,
)

__version__ = "0.1.0"
