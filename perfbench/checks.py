"""Output checkers for the benchmark, run after the timed phase.

Every checker compares a becpolar output against an exact twin that shares no
code with the path the benchmark times:

* pointwise values come from the m-step scalar recursion z -> z^2 (0-bit),
  z -> 2z - z^2 (1-bit) at a rational p, innermost bit first;
* channel polynomials, average reliabilities and path counts come from the
  list-based syntheses below (power basis and path-count basis), written
  independently of `becpolar.polynomials` and `becpolar.synthesis`;
* decile rows come from `golden.DISTRIBUTION_FIRST5`, and averages at the
  labels 2^i - 1 from the closed forms in `becpolar.reliability`, which no
  timed task of the `tables` workload calls.

A checker returns nothing when the output is right and raises `CheckError`
with a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from math import comb

from becpolar import golden, reliability

PLACES = 10**6  # the CLI prints decimals rounded half-up to 6 places
BETA_REL_TOL = Fraction(1, 10**40)  # beta scores print at 50 significant digits
THRESHOLD_TOL = Fraction(1, 2**30)  # bisection tolerance used by `rank`
GRID = 64  # pointwise sample points j/GRID; 16 already separate every m = 6 pair
RELATIONS = ("weak", "standard", "dominance", "pointwise")
LEQ, GEQ, EQUAL, INCOMPARABLE = ("less_or_equal", "greater_or_equal", "equal",
                                 "incomparable")


class CheckError(Exception):
    """An output disagrees with its exact twin."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# exact twins
# ---------------------------------------------------------------------------


def scalar_erasure(u: int, m: int, p: Fraction) -> Fraction:
    """Z_u(p) by the scalar recursion, bit m-1 applied first, bit 0 last."""
    z = p
    for i in range(m - 1, -1, -1):
        z = 2 * z - z * z if (u >> i) & 1 else z * z
    return z


def _square(a: list[int]) -> list[int]:
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def power_basis_table(m: int) -> list[list[int]]:
    """Coefficient lists (ascending, no trailing zeros) of all 2^m channels."""
    level = [[0, 1]]
    for _ in range(m):
        nxt = []
        for z in level:
            sq = _square(z)
            par = [2 * c for c in z] + [0] * (len(sq) - len(z))
            par = [x - y for x, y in zip(par, sq)]
            while par and par[-1] == 0:
                par.pop()
            nxt += [sq, par]
        level = nxt
    return level


def path_count_table(m: int) -> list[list[int]]:
    """Path counts N_0..N_n of all 2^m channels, built in the path-count basis.

    A series step maps N to N*N (convolution); a parallel step maps N to
    C(2n, .) - Nbar*Nbar with Nbar = C(n, .) - N.
    """
    level = [[0, 1]]
    n = 1
    for _ in range(m):
        binom = [comb(2 * n, i) for i in range(2 * n + 1)]
        nxt = []
        for counts in level:
            bar = [comb(n, i) - c for i, c in enumerate(counts)]
            nxt.append(_square(counts))
            nxt.append([b - x for b, x in zip(binom, _square(bar))])
        level = nxt
        n *= 2
    return level


def avr_of(coeffs: list[int]) -> Fraction:
    return sum((Fraction(c, i + 1) for i, c in enumerate(coeffs)), Fraction(0))


def round6(x: Fraction) -> Fraction:
    """x rounded half-up to 6 decimal places."""
    q, r = divmod(x.numerator * PLACES, x.denominator)
    return Fraction(q + (2 * r >= x.denominator), PLACES)


def _decimal(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except ArithmeticError:
        raise CheckError(f"not a decimal: {text!r}") from None


def _ratio(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a rational: {text!r}") from None


class Twins:
    """Exact reference values, computed on first use and kept for the run."""

    def __init__(self) -> None:
        self._power: dict[int, list[list[int]]] = {}
        self._counts: dict[int, list[list[int]]] = {}
        self._avr: dict[int, list[Fraction]] = {}
        self._grid: dict[int, list[list[Fraction]]] = {}

    def power(self, m: int) -> list[list[int]]:
        if m not in self._power:
            self._power[m] = power_basis_table(m)
        return self._power[m]

    def counts(self, m: int) -> list[list[int]]:
        if m not in self._counts:
            self._counts[m] = path_count_table(m)
        return self._counts[m]

    def avr(self, m: int) -> list[Fraction]:
        if m not in self._avr:
            self._avr[m] = [avr_of(c) for c in self.power(m)]
        return self._avr[m]

    def grid(self, m: int) -> list[list[Fraction]]:
        """Z_u(j/GRID) for j = 1..GRID-1, per channel u."""
        if m not in self._grid:
            points = [Fraction(j, GRID) for j in range(1, GRID)]
            self._grid[m] = [[scalar_erasure(u, m, p) for p in points]
                             for u in range(1 << m)]
        return self._grid[m]


# ---------------------------------------------------------------------------
# tables: distribution and avrplot
# ---------------------------------------------------------------------------


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_distribution(rc: int, text: str, m: int) -> None:
    """Decile rows: the golden first five, mirror symmetry, 2^m in total."""
    _require(rc == 0, f"exit code {rc}")
    rows = _csv_rows(text, "bucket_low,bucket_high,count")
    _require(len(rows) == 10, f"{len(rows)} rows, want 10")
    for i, row in enumerate(rows):
        want = [f"0.{i}", "1.0" if i == 9 else f"0.{i + 1}"]
        _require(len(row) == 3 and row[:2] == want, f"row {i} is {row}")
    try:
        counts = [int(row[2]) for row in rows]
    except ValueError:
        raise CheckError("count column is not an integer") from None
    _require(sum(counts) == 1 << m, f"counts sum to {sum(counts)}, want {1 << m}")
    _require(counts == counts[::-1], f"counts {counts} are not mirror symmetric")
    if m in golden.DISTRIBUTION_FIRST5:
        _require(tuple(counts[:5]) == golden.DISTRIBUTION_FIRST5[m],
                 f"first five {counts[:5]} != golden {golden.DISTRIBUTION_FIRST5[m]}")


def check_avrplot(rc: int, text: str, m: int) -> None:
    """(label, avr) rows: closed forms at labels 2^i - 1, complement sums."""
    _require(rc == 0, f"exit code {rc}")
    rows = _csv_rows(text, "u,avr")
    n = 1 << m
    _require(len(rows) == n, f"{len(rows)} rows, want {n}")
    values = []
    for u, row in enumerate(rows):
        _require(len(row) == 2 and row[0] == str(u), f"row {u} is {row}")
        values.append(_decimal(row[1]))
        _require(0 <= values[u] <= 1, f"avr of {u} is {row[1]}")
    for i in range(m + 1):
        want = round6(reliability.avr_closed_form(m, i))
        _require(values[(1 << i) - 1] == want,
                 f"avr of {(1 << i) - 1} is {float(values[(1 << i) - 1])}, "
                 f"closed form {float(want)}")
    for u in range(n):
        # avr(u) + avr(complement) = 1 exactly; each side is rounded once
        _require(abs(values[u] + values[u ^ (n - 1)] - 1) <= Fraction(1, PLACES),
                 f"avr of {u} and its complement do not sum to 1")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def _criterion_scores(m: int, by: str, twins: Twins) -> tuple[list[Fraction], str]:
    """Exact score per channel and the criterion label `rank` prints."""
    if by == "avr":
        return twins.avr(m), "avr"
    if by.startswith("p="):
        p = Fraction(by[2:])
        return [scalar_erasure(u, m, p) for u in range(1 << m)], f"p={p}"
    if by.startswith("beta="):
        beta = Fraction(Decimal(by[5:]))
        powers = [beta**i for i in range(m)]
        scores = [sum((powers[i] for i in range(m) if (u >> i) & 1), Fraction(0))
                  for u in range(1 << m)]
        return scores, f"beta={Decimal(by[5:])}"
    raise ValueError(f"unknown criterion {by!r}")


def _check_threshold(u: int, m: int, printed: Fraction) -> None:
    """The root of Z_u(p) = 1/2 lies within rounding and tolerance of the
    printed value, so Z_u straddles 1/2 across that interval (Z_u rises)."""
    slack = Fraction(1, 2 * PLACES) + THRESHOLD_TOL
    lo, hi = max(printed - slack, Fraction(0)), min(printed + slack, Fraction(1))
    half = Fraction(1, 2)
    _require(scalar_erasure(u, m, lo) <= half <= scalar_erasure(u, m, hi),
             f"threshold {float(printed)} of {u} does not straddle 1/2")


def check_rank(rc: int, text: str, m: int, by: str, k: int, twins: Twins) -> None:
    """JSON ranking: the top k labels in exact order, with exact scores,
    averages and thresholds."""
    _require(rc == 0, f"exit code {rc}")
    try:
        doc = json.loads(text)
        records = doc["records"]
        got_m, label = doc["m"], doc["criterion"]
    except (ValueError, KeyError, TypeError):
        raise CheckError("output is not a rank JSON document") from None
    scores, want_label = _criterion_scores(m, by, twins)
    _require(got_m == m and label == want_label, f"header m={got_m} criterion={label}")
    order = sorted(range(1 << m), key=lambda u: (scores[u], u))[:k]
    try:
        labels = [rec["u"] for rec in records]
    except (KeyError, TypeError):
        raise CheckError("record without a label") from None
    _require(labels == order, f"labels {labels[:8]}... differ from exact order {order[:8]}...")
    avr = twins.avr(m)
    for rec in records:
        u = rec["u"]
        try:
            score, score_dec = rec["score"], _decimal(rec["score_decimal"])
            avr_text, avr_dec = rec["avr"], _decimal(rec["avr_decimal"])
            threshold = _decimal(rec["threshold_decimal"])
            degree = rec["degree"]
        except (KeyError, TypeError):
            raise CheckError(f"record {u} lacks a field") from None
        _require(degree == u.bit_count(), f"degree of {u} is {degree}")
        if by.startswith("beta="):
            err = abs(_decimal(score) - scores[u])
            _require(err <= BETA_REL_TOL * scores[u] if scores[u] else err == 0,
                     f"beta score of {u} is {score}")
            _require(abs(score_dec - scores[u]) <= Fraction(1, 2 * PLACES),
                     f"score decimal of {u} is {rec['score_decimal']}")
        else:
            _require(_ratio(score) == scores[u], f"score of {u} is {score}")
            _require(score_dec == round6(scores[u]), f"score decimal of {u} is {rec['score_decimal']}")
        _require(_ratio(avr_text) == avr[u], f"avr of {u} is {avr_text}")
        _require(avr_dec == round6(avr[u]), f"avr decimal of {u} is {rec['avr_decimal']}")
        _check_threshold(u, m, threshold)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


def check_pair(u: int, v: int, verdicts: tuple[str, ...], m: int, twins: Twins) -> None:
    """Four verdicts for channels u != v: divisibility for `weak`, the chain
    weak => standard => dominance => pointwise, and the pointwise verdict
    against exact values on a grid of sample points."""
    _require(len(verdicts) == 4 and u != v, f"malformed record {(u, v, verdicts)}")
    _require(all(x in (LEQ, GEQ, INCOMPARABLE) for x in verdicts),
             f"verdicts {verdicts} for distinct channels")
    weak = LEQ if u & v == u else GEQ if u & v == v else INCOMPARABLE
    _require(verdicts[0] == weak, f"weak verdict {verdicts[0]} for {u}, {v}")
    for coarse, fine, (a, b) in zip(verdicts, verdicts[1:], zip(RELATIONS, RELATIONS[1:])):
        _require(coarse == INCOMPARABLE or fine == coarse,
                 f"{a} says {coarse} but {b} says {fine} for {u}, {v}")
    zu, zv = twins.grid(m)[u], twins.grid(m)[v]
    below = any(x < y for x, y in zip(zu, zv))
    above = any(x > y for x, y in zip(zu, zv))
    want = (INCOMPARABLE if below and above else LEQ if below
            else GEQ if above else EQUAL)
    _require(verdicts[3] == want, f"pointwise verdict {verdicts[3]} for {u}, {v}; samples say {want}")


def path_counts_share_sign(counts: list[int]) -> bool:
    """True when the path-count certificate alone settles the sign of the
    difference: all counts >= 0 or all <= 0."""
    return all(c >= 0 for c in counts) or all(c <= 0 for c in counts)


def check_complement_closure(incomparable: set[tuple[int, int]], m: int) -> set[tuple[int, int]]:
    """Incomparable pairs whose complement pair is not also incomparable.

    Complementing both labels reverses every channel order, so the set of
    incomparable pairs is closed under complement."""
    mask = (1 << m) - 1
    return {(u, v) for u, v in incomparable
            if tuple(sorted((u ^ mask, v ^ mask))) not in incomparable}


# ---------------------------------------------------------------------------
# verify and synth
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify(rc: int, text: str) -> None:
    """Exit 0, no FAIL line, and a closing `k/k checks passed` over k PASS lines."""
    _require(rc == 0, f"exit code {rc}")
    lines = text.splitlines()
    _require(bool(lines), "no output")
    fails = [line for line in lines if line.startswith("FAIL")]
    _require(not fails, f"{fails[0]!r}" if fails else "")
    match = _SUMMARY.fullmatch(lines[-1])
    _require(match is not None, f"last line is {lines[-1]!r}")
    passed, total = int(match.group(1)), int(match.group(2))
    n_pass = sum(line.startswith("PASS ") for line in lines)
    _require(passed == total == n_pass >= 1,
             f"{lines[-1]!r} after {n_pass} PASS lines")


def check_synth(rc: int, text: str, m: int, twins: Twins) -> None:
    """JSON table: every channel's coefficients and path counts."""
    _require(rc == 0, f"exit code {rc}")
    try:
        doc = json.loads(text)
        channels = doc["channels"]
        got_m = doc["m"]
    except (ValueError, KeyError, TypeError):
        raise CheckError("output is not a synth JSON document") from None
    _require(got_m == m and len(channels) == 1 << m,
             f"m={got_m} with {len(channels)} channels")
    power, counts = twins.power(m), twins.counts(m)
    for u, ch in enumerate(channels):
        try:
            ok = (ch["u"] == u and ch["degree"] == u.bit_count()
                  and ch["coeffs"] == power[u] and ch["path_counts"] == counts[u])
        except (KeyError, TypeError):
            raise CheckError(f"channel {u} lacks a field") from None
        _require(ok, f"channel {u} differs from the exact twin")
