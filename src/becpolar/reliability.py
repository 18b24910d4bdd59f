"""Two-terminal compositions, a brute-force path-count oracle, and closed
forms for the average reliability of series-prefixed parallel channels and
of single-variable channels.

A channel label u of m bits corresponds to a series/parallel composition of
2^m identical devices between a source S and a sink T: starting from a single
edge, bit u_0 is applied first (outermost), each 0-bit replaces every edge by
two in series, each 1-bit by two in parallel.  The network reliability with
i.i.d. device closing probability p equals the channel polynomial Z_u(p), and
the subset-enumeration oracle recovers its path-count coefficients entirely
independently of the polynomial recursion.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .monomials import Monomial
from .polynomials import PathCounts

ORACLE_EDGE_CAP = 16


def build_graph(u: Monomial) -> tuple[tuple[int, int], ...]:
    """Edges of the composition (S = node 0, T = node 1) by recursive
    series/parallel replacement, outermost bit u_0 first.

    Each step replaces every current edge by two edges (in series for a 0-bit,
    in parallel for a 1-bit), mirroring the nesting of the channel recursion;
    the final graph has exactly 2^m edges.
    """
    nodes = 2
    edges: list[tuple[int, int]] = [(0, 1)]
    for i in range(u.m):
        parallel = (u.bits >> i) & 1
        nxt: list[tuple[int, int]] = []
        for a, b in edges:
            if parallel:
                nxt.append((a, b))
                nxt.append((a, b))
            else:
                c = nodes
                nodes += 1
                nxt.append((a, c))
                nxt.append((c, b))
        edges = nxt
    return tuple(edges)


def oracle_path_counts(edges: tuple[tuple[int, int], ...]) -> PathCounts:
    """Count, for each i, the i-edge subsets connecting S (node 0) to T (node 1)
    in the multigraph of the edges, on nodes 0 up to the largest named (>= 1).

    A brute force over all 2^e edge subsets, run on them all at once: bit j
    of an integer stands for subset j, the edges whose bits are set in j.
    `has[i]` holds the subsets that contain edge i, `reach[v]` those in which
    v is reachable from S (relaxed over the edges until a full pass changes
    nothing), and `by_size[i]` those of i edges.  It shares nothing with the
    polynomial recursion, so it is a ground truth for the basis-conversion
    route.  Capped at 16 edges: 2^16 subsets make integers of 8 KB, while the
    32 edges of m = 5 would need 2^32-bit integers, 512 MB each.
    """
    e = len(edges)
    if e > ORACLE_EDGE_CAP:
        raise ValueError(f"{e} edges exceeds oracle cap {ORACLE_EDGE_CAP}")
    every = (1 << (1 << e)) - 1
    # 2^i zeros then 2^i ones, repeated over the 2^e subsets
    has = [every // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
           for i in range(e)]
    reach = [0] * (max([1, *map(max, edges)]) + 1)
    reach[0] = every
    before = None
    while reach != before:
        before = list(reach)
        for (a, b), h in zip(edges, has):
            joined = (reach[a] | reach[b]) & h
            reach[a] |= joined
            reach[b] |= joined
    by_size = [every]
    for h in has:
        by_size = [s & ~h | prev & h for s, prev in zip(by_size + [0], [0] + by_size)]
    return PathCounts(e, tuple((reach[1] & s).bit_count() for s in by_size))


def ni_inclusion_exclusion(m: int, i_ones: int) -> PathCounts:
    """Path counts of the channel with i_ones leading 1-bits (rest 0).

    The composition is w = 2^i_ones minimal paths of length l = 2^(m-i_ones)
    in parallel; counting i-edge connecting subsets by how many complete
    minimal paths they contain gives

        N_i = sum_{j>=1} (-1)^(j+1) C(w, j) C(n - j*l, n - i)   for i >= l,

    and N_i = 0 below the minimal path length.
    """
    if not 0 <= i_ones <= m:
        raise ValueError(f"i_ones={i_ones} must be in 0..m={m}")
    n = 1 << m
    w = 1 << i_ones
    l = 1 << (m - i_ones)
    counts = [0] * (n + 1)
    for i in range(l, n + 1):
        counts[i] = sum(
            (-1) ** (j + 1) * comb(w, j) * comb(n - j * l, n - i)
            for j in range(1, i // l + 1)
        )
    return PathCounts(n, tuple(counts))


def gen_binomial(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1) / k! over rationals."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = Fraction(1)
    for t in range(k):
        num *= x - t
    for t in range(2, k + 1):
        num /= t
    return num


def avr_closed_form(m: int, i_ones: int) -> Fraction:
    """Exact average reliability of the channel with i_ones leading 1-bits,
    1 - 1 / C(2^i + 2^(i-m), 2^i) with i = i_ones: one minus that of its
    complement, since the averages of complementary channels sum to 1."""
    return 1 - avr_closed_form_complement(m, i_ones)


def avr_closed_form_complement(m: int, i_zeros: int) -> Fraction:
    """Exact average reliability of the channel with i_zeros leading 0-bits,
    rest 1:

        1 / C(2^i + 2^(i-m), 2^i)   with i = i_zeros,

    the generalized binomial taking the rational upper argument
    2^i + 2^(i-m) = (n+1)/l.  Agrees exactly with integrating the channel
    polynomial.
    """
    if not 0 <= i_zeros <= m:
        raise ValueError(f"i={i_zeros} must be in 0..m={m}")
    w = 1 << i_zeros
    x = Fraction(w) + Fraction(1, 1 << (m - i_zeros))
    return 1 / gen_binomial(x, w)


def avr_single_variable(m: int, j: int) -> Fraction:
    """Exact average reliability of the single-variable channel x_j, label
    2^j of m, 0 <= j < m:

        sum_{l=0..B} (-1)^l C(B, l) 2^(B-l) / (A (B + l) + 1),

    A = 2^(m-1-j), B = 2^j.  The steps of its m - 1 - j bits above bit j
    square p, Y = p^A, bit j maps Y to 2Y - Y^2, and the j steps below
    square that, so Z = (2Y - Y^2)^B = sum_l (-1)^l C(B, l) 2^(B-l)
    p^(A (B + l)), integrated term by term.  The terms are summed as
    integers over the lcm of their denominators, every one of which divides
    lcm(1..2^m + 1); its complement, every variable but x_j, has one minus
    it.
    """
    if not 0 <= j < m:
        raise ValueError(f"j={j} must be in 0..m-1={m - 1}")
    a, b = 1 << (m - 1 - j), 1 << j
    dens = [a * (b + l) + 1 for l in range(b + 1)]
    d = lcm(*dens)
    return Fraction(sum((-1) ** l * (comb(b, l) << (b - l)) * (d // den)
                        for l, den in enumerate(dens)), d)
