"""Golden values for the desk-scale verification suites.

Known-correct outputs at small sizes: two-decimal average reliabilities for
m = 2..4, the m = 4 degree-2 path-count vectors, the m = 5 incomparable label
pairs and their decimal averages, ranking prefixes for m = 5 and m = 6, the
decile histogram rows for m = 5..11, and the ranking-disagreement counts for
the beta criterion.  The named checks of `becpolar.checks`, which both
`becpolar verify` and the acceptance suite run, compare against these.
"""

from __future__ import annotations

from fractions import Fraction

# Two-decimal average reliabilities keyed by m, listed in ranked order
# (most reliable channel first) as (label, rendered value).
AVR_2DP_ROWS: dict[int, list[tuple[int, str]]] = {
    2: [(0, "0.20"), (1, "0.47"), (2, "0.53"), (3, "0.80")],
    3: [(0, "0.11"), (1, "0.29"), (2, "0.34"), (4, "0.41"),
        (3, "0.59"), (5, "0.66"), (6, "0.71"), (7, "0.89")],
    4: [(0, "0.06"), (1, "0.16"), (2, "0.20"), (4, "0.24"), (8, "0.30"),
        (3, "0.38"), (5, "0.44"), (6, "0.48"), (9, "0.52"), (10, "0.56"),
        (12, "0.62"), (7, "0.70"), (11, "0.76"), (13, "0.80"),
        (14, "0.84"), (15, "0.94")],
}

# Entries of AVR_2DP_ROWS whose cited digits disagree with half-up rounding
# of the exact value (they agree within one unit in the last place); the
# exact fractions are pinned here.
AVR_2DP_LOOSE: dict[tuple[int, int], Fraction] = {
    (4, 6): Fraction(74561, 153153),   # 0.48684 -> cited 0.48
    (4, 9): Fraction(78592, 153153),   # 0.51316 -> cited 0.52
}

# Path-count vectors of the two degree-2 channels at m = 4 (labels 6 and 9).
PATH_COUNTS_M4_U6 = (0, 0, 0, 0, 16, 192, 1008, 3040, 5828, 7456, 6552,
                     4048, 1788, 560, 120, 16, 1)
PATH_COUNTS_M4_U9 = (0, 0, 0, 0, 32, 320, 1456, 3984, 7042, 8400, 7000,
                     4176, 1804, 560, 120, 16, 1)

# All pointwise-incomparable label pairs at m = 5 (canonical u < v); none
# exist for m <= 4.
INCOMPARABLE_PAIRS_M5 = [(3, 16), (7, 20), (7, 24), (11, 24), (12, 17),
                         (14, 19), (15, 28)]

# Cited decimal average reliabilities for the first four incomparable pairs
# in discovery order.  The second value of (3, 16) is cited one ulp below the
# half-up rendering of the exact value (0.21653).
FIRST4_PAIR_DECIMALS = [
    ((3, 16), ("0.221", "0.216")),
    ((12, 17), ("0.396", "0.383")),
    ((7, 20), ("0.4712", "0.4710")),
    ((7, 24), ("0.4712", "0.5288")),
]

# Six-place renderings of the m = 5 pair averages, frozen from exact
# integration; label 16 (0.216528) renders as 0.217 at the cited three places.
PAIR_AVR_6DP_M5: dict[int, str] = {
    3: "0.221200", 16: "0.216528", 12: "0.395684", 17: "0.382549",
    7: "0.471160", 20: "0.470982", 24: "0.528840"}

# Average-reliability ranking prefixes (most reliable first).
ORDER_PREFIX_M5 = (0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 17, 12, 18, 20, 7, 24)
ORDER_PREFIX_M6 = (0, 1, 2, 4, 8, 16, 3, 5, 32, 6, 9, 10, 17, 12, 18, 33,
                   20, 7, 34, 24, 11, 36, 13, 19, 14, 40, 21, 48, 22, 35,
                   25, 37, 26, 38, 28, 41)

# First five decile-bucket counts of the average-reliability histogram; the
# upper five mirror them by complementation.
DISTRIBUTION_FIRST5: dict[int, tuple[int, ...]] = {
    5: (2, 3, 4, 4, 3),
    6: (5, 7, 6, 8, 6),
    7: (11, 13, 14, 13, 13),
    8: (23, 25, 27, 27, 26),
    9: (49, 51, 50, 55, 51),
    10: (99, 104, 98, 107, 104),
    11: (199, 209, 204, 204, 208),
}

# Ranking-disagreement pair counts between the average-reliability and beta
# rankings at beta = 1.22.
BETA_INCOMPATIBLE_AT_122: dict[int, int] = {6: 2, 7: 10, 8: 36, 9: 99}

# beta values at which the beta ranking coincides with the average ranking
# (count 0): spot-check points inside the published ranges.
BETA_ZERO_POINTS: dict[int, tuple[str, ...]] = {
    4: ("1.01", "1.1", "1.32"),
    5: ("1.19", "1.2", "1.22"),
}
