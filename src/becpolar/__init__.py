"""Exact reliability analysis of binary-erasure polar sub-channels.

Bitmask monomials label synthetic channels; their erasure probabilities are
integer-coefficient polynomials computed exactly, compared exactly under four
order relations, and ranked by exact average reliability or beta expansion.
"""

from .monomials import MAX_M, Monomial, all_monomials
from .polynomials import (
    IntPoly,
    PathCounts,
    eval_rational,
    integrate01,
    nonneg_on_01,
    to_path_counts,
)
from .synthesis import (
    ChannelTable,
    average_numerators,
    channel_threshold,
    synth_all,
    synth_labels,
    synth_poly,
)
from .orders import (
    Comparison,
    OrderVerdict,
    Relation,
    closure,
    compare,
    hasse_edges,
    interval,
    is_decreasing,
    leq,
    leq_pointwise,
    mult_compatible,
)
from .reliability import (
    avr_closed_form,
    avr_closed_form_complement,
    build_graph,
    gen_binomial,
    ni_inclusion_exclusion,
    oracle_path_counts,
)
from .construction import (
    Criterion,
    RankedChannels,
    avr_distribution,
    beta_avr_conflicts,
    beta_incompatible_count,
    incomparable_pairs,
    rank,
)

__version__ = "0.1.0"
