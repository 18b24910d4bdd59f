"""Command-line front end: synthesis, ranking, poset export, verification,
and histogram/plot data.

Subcommands
-----------
synth         channel polynomial coefficients and path counts
rank          channels ordered by average reliability, pointwise value, or beta score
poset         Hasse diagram of an order relation in DOT format
verify        the named exact checks of `checks`, one PASS/FAIL line each
              (exit 1 on failure)
distribution  decile histogram of average reliabilities (CSV)
avrplot       (label, average reliability) pairs for plotting (CSV)

Exact scores are printed as num/den strings, beta scores as exact decimals;
the other decimal columns are presentation-only renderings.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from . import checks, construction, orders, polynomials, synthesis
from .monomials import Monomial, check_m, monomial_text
from .orders import Relation

_RELATIONS = {"w": Relation.WEAK, "std": Relation.STANDARD, "dom": Relation.DOMINANCE}

# One admission rule.  A row of COSTS is (reference m, a layer's seconds per
# unit of work at it, growth per stage); a command's estimate sums its units
# times those seconds at its m.  Measured in-process, one run each
# (CPython 3.11, 2-core shared host):
#   synthesis     synth_all: 0.09 / 0.66 / 9.7 s at m = 8 / 9 / 10.
#   conversion    to_path_counts of one channel: 3.8 / 49 / 600 ms at m = 7 /
#                 8 / 9.  synth --u converts one, verify and synth 2^m.
#   average walk  average_numerators, the walk of distribution and avrplot:
#                 0.42 / 2.7 / 23.5 s at m = 11 / 12 / 13.
#   frontier      rank --by avr --k K from the frontier, K <= 2^(m-3), per
#                 (K / 64)^4.  Its costliest read is the difference table of
#                 x0*x_j for the highest variable x_j among the best K: about
#                 4^j subtractions of 1.44 * 2^m bits, while x_j ranks about
#                 1.44^j-th (m = 13), hence K^4 and twofold per stage.  At
#                 m = 15 / 16, K = 64 took 0.73 / 1.25 s, K = 100 6.7 / 13 s,
#                 K = 120 7.4 / 17 s and K = 144 31 / 53 s.  Past the step
#                 where x_(m-2) joins, sqrt(K / 2^(m-1)) average walks is the
#                 smaller estimate, so the frontier counts as the smaller of
#                 the two.
#                 Every time measured at m = 12..16 above 0.5 s is at most
#                 0.67 of that estimate (m = 14, K = 144: 16.6 s, estimated
#                 24.9 s); below it the fixed cost of D and the chain flips
#                 shows, and the best 10 took 0.008-0.11 s.
#   difference tables
#                 rank --by beta=x and rank --by avr past the frontier, per
#                 (s / 2^12)^2 for each table of s + 1 moments that
#                 average_descent builds to read the labels listed, named by
#                 the beta order ranked first, or every label, which
#                 `construction.rank` reads (`synthesis.descent_tables`).
#                 Fitted above every time measured at m = 14..16, each
#                 0.57-0.91 of its estimate: m = 14, K = 144 / 368 at
#                 beta = 1.01 and K = 2144 at 1.22 took 19.5 / 22.0 / 26.3 s;
#                 m = 15, K = 57 / 58 / 120 at 1.01 and 374 at 1.22 7.1 /
#                 26.0 / 172 / 7.9 s; m = 16, K = 58 / 59 at 1.01 and 374 at
#                 1.22 19.6 / 48.9 / 15.8 s.  Near 1, beta lists x0*x_j of
#                 high j early, which the frontier row prices only at the K
#                 where avr lists them.  Every label is estimated at 3.52 /
#                 32.4 s at m = 13 / 14, where the descent over them took
#                 3.15-3.5 / 28.6 s, and below one average walk at every m.
#   scoring       rank --by p=a/q, per digit of q for each channel scored:
#                 all 2^m past the frontier, from it at most min(2^m, 1 + mK),
#                 since each of the K chosen labels adds at most m labels and
#                 each is scored once.  A score past synthesis, averaged over
#                 every label, took 0.048 / 0.19 / 1.4 ms with 1 digit, 0.41 /
#                 1.2 / 8.3 ms with 9 and 10.5 / 55 / 200 ms with 99 at m = 8 /
#                 9 / 10 (m = 10, 99 digits: 64 random labels).  Fitted above
#                 the 99-digit ones; the cost grows faster than the digits, so
#                 short q are over-estimated.  The frontier's labels score
#                 below the average: the best 5 of m = 10 with 99 digits took
#                 0.57 s past synthesis, estimated 14.6 s.
# BUDGET sits just above the average walk at m = 13, the costliest admitted
# stage of any layer; each layer's next stage is estimated at 95 s or more,
# and every label's tables at m = 14 at 32.4 s.
COSTS = {"synthesis": (10, 9.7, 12), "conversion": (9, 0.6, 12.6),
         "average walk": (13, 23.5, 8), "frontier": (15, 2, 2),
         "difference tables": (15, 28, 2.3), "scoring": (9, 5.8e-4, 5)}
BUDGET = 25


def _seconds(m: int, units: dict[str, float]) -> dict[str, float]:
    """Each layer's estimated seconds at m for `units` of its work (COSTS)."""
    return {layer: count * cost * growth ** (m - ref)
            for layer, count in units.items() for ref, cost, growth in [COSTS[layer]]}


def _admit(args: argparse.Namespace, units: dict[str, float]) -> None:
    """Refuse, unless --force is given, work whose estimate exceeds BUDGET
    seconds, before any of it runs.  `units` counts the command's work in
    each layer of COSTS; the refusal names the costliest one."""
    seconds = _seconds(args.m, units)
    total = sum(seconds.values())
    if total > BUDGET and not args.force:
        layer = max(seconds, key=seconds.get)
        raise ValueError(f"m={args.m} is estimated at {total:.3g} s ({layer} "
                         f"{seconds[layer]:.3g} s), over the {BUDGET} s budget; "
                         "pass --force to override")


def _dec(x: int, d: int) -> str:
    """x / d rounded half-up to 6 places, the decimal columns' text."""
    return construction.render_avr(x, 6, d)


def _ratio(x: int, d: int) -> str:
    """x / d in lowest terms as num/den, from one gcd."""
    g = gcd(x, d)
    return f"{x // g}/{d // g}"


def _beta_decimal(x: int, d: int, places: int) -> str:
    """A beta score x / d, a sum of powers below beta^m with at most `places`
    decimal places, (m - 1) times those of beta, written exactly as a
    decimal without trailing zeros."""
    text = construction.render_avr(x, places, d)
    return text.rstrip("0").rstrip(".") if "." in text else text


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _channel_entry(m: int, u: int, poly: polynomials.IntPoly) -> dict:
    pc = polynomials.to_path_counts(poly, 1 << m)
    return {
        "u": u,
        "monomial": str(Monomial(m, u)),
        "degree": Monomial(m, u).degree,
        "coeffs": list(poly.coeffs),
        "path_counts": list(pc.counts),
    }


def cmd_synth(args: argparse.Namespace) -> int:
    """Print each channel's coefficients and path counts, one channel at a
    time: the JSON is written entry by entry, each entry's text indented as
    `json.dumps(..., indent=2)` nests it, so no text of the whole table is
    ever built."""
    m = args.m
    if args.u is None:
        _admit(args, {"synthesis": 1, "conversion": 1 << m})
        polys = enumerate(synthesis.synth_labels(m))
    else:
        if not 0 <= args.u < (1 << m):
            raise ValueError(f"u={args.u} out of range for m={m}")
        _admit(args, {"conversion": 1})
        polys = [(args.u, synthesis.synth_poly(Monomial(m, args.u)))]
    entries = (_channel_entry(m, u, poly) for u, poly in polys)
    if args.format == "json":
        out = sys.stdout
        out.write(f'{{\n  "m": {m},\n  "channels": [')
        for i, entry in enumerate(entries):
            text = json.dumps(entry, indent=2).replace("\n", "\n    ")
            out.write(f"{',' if i else ''}\n    {text}")
        out.write("\n  ]\n}\n")
    else:
        print("u,i,coeff,path_count")
        for entry in entries:  # every channel has degree 2^m: 2^m + 1 coefficients
            for i, (c, npc) in enumerate(zip(entry["coeffs"], entry["path_counts"])):
                print(f"{entry['u']},{i},{c},{npc}")
    return 0


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def _parse_criterion(text: str) -> construction.Criterion:
    try:
        if text == "avr":
            return construction.Criterion.average()
        if text.startswith("p="):
            construction.check_number_size("p", text[2:])
            return construction.Criterion.pointwise_at(Fraction(text[2:]))
        if text.startswith("beta="):
            return construction.Criterion.beta_expansion(Decimal(text[5:]))
    except (ZeroDivisionError, decimal.InvalidOperation):  # p=a/0, beta=<not a decimal>
        raise ValueError(f"--by {text!r} is not a valid number") from None
    raise ValueError(f"--by must be 'avr', 'p=<rational>', or 'beta=<decimal>', got {text!r}")


def _rank_json(m: int, label: str, records: list[dict]) -> str:
    """The text of `json.dumps({"m": m, "criterion": label, "records":
    records}, indent=2)` for records of flat ints and strings.  `indent`
    makes `json` fall back to its pure-Python encoder; this writes the
    fixed layout directly and escapes each string with `json`'s own
    encoder."""
    rows = ",\n".join(
        "    {\n" + ",\n".join(f"      {_quote(key)}: {value if type(value) is int else _quote(value)}"
                              for key, value in rec.items()) + "\n    }"
        for rec in records)
    listing = f"[\n{rows}\n  ]" if records else "[]"
    return f'{{\n  "m": {m},\n  "criterion": {_quote(label)},\n  "records": {listing}\n}}'


def cmd_rank(args: argparse.Namespace) -> int:
    """Rank the channels; print the best k with their averages and thresholds.

    Thresholds come from the label by integer square roots
    (`threshold_floors`), and averages from the moment recursion, so only
    `p=` builds a polynomial: it scores on the full channel table.  Every
    average is read from the descent (`average_descent`).  While
    k <= 2^(m-3), `avr` and `p=` list the best k from the standard-order
    frontier (`construction.best`), which scores only the labels its greedy
    reads.  A move up the standard order never lowers a score, average or
    at p, and always raises the label, so (score, label) rises along every
    move and the greedy lists exactly the prefix of `rank`, ties broken by
    label.  Past that, and for `beta=`, every label is ranked (`rank`).
    The listed averages are the scores for `avr`; `p=` and `beta=` take
    them for the k listed labels from one descent.

    The estimate (`COSTS`) prices the engine that runs: `p=` synthesis and
    scoring of the labels it reads, min(2^m, 1 + mk) from the frontier and
    2^m past it; the `avr` frontier its own row or a share of the average
    walk, whichever is less; every other listing the difference tables that
    the descent builds for the labels it reads (`synthesis.descent_tables`),
    every label for `avr` and the listed ones for `beta=`, which ranks first.

    Each record is built from integers: the ratios by one gcd, every decimal
    column by one divmod (`render_avr`), the monomial from the label's
    cached support, and the thresholds of all listed labels from one
    `synthesis.threshold_floors`.
    """
    criterion = _parse_criterion(args.by)
    m = args.m
    k = 1 << m if args.k is None else args.k
    if not 0 <= k <= (1 << m):
        raise ValueError(f"--k {k} out of range for m={m}")
    frontier = criterion.kind != "beta" and 8 * k <= 1 << m
    # a beta ranking is 2^m sums and one sort, with no average: it names the labels to price
    ranking = construction.rank(criterion, m) if criterion.kind == "beta" else None
    if criterion.kind == "pointwise":
        scores = min(1 << m, 1 + m * k) if frontier else 1 << m
        _admit(args, {"synthesis": 1, "scoring": scores * len(str(criterion.p.denominator))})
    elif frontier:
        _admit(args, min({"frontier": (k / 64) ** 4}, {"average walk": (k / (1 << (m - 1))) ** 0.5},
                         key=lambda units: sum(_seconds(m, units).values())))
    else:  # the descent reads the listed labels, or every label for `rank` by average
        tables = synthesis.descent_tables(m, ranking.order[:k] if ranking else range(1 << m))
        _admit(args, {"difference tables": sum((s / 4096) ** 2 for s in tables)})
    if frontier:
        listed, keys, den = construction.best(criterion, m, k)
    else:
        ranking = ranking or construction.rank(criterion, m)
        listed = ranking.order[:k]
        keys, den = [ranking.keys[u] for u in listed], ranking.denominator
    if criterion.kind == "average":
        nums, d = keys, den
    else:
        numerator, d = synthesis.average_descent(m)
        nums = [numerator(u) for u in listed]
    if criterion.kind == "beta":
        places = (m - 1) * max(0, -criterion.beta.as_tuple().exponent)
    # each threshold to within 2^-30, as `channel_threshold` gives it: the
    # midpoint (2 floor(t 2^29) + 1) / 2^30 of its bracket
    floors = synthesis.threshold_floors(m, listed, 29)
    records = []
    for u, key, x, floor in zip(listed, keys, nums, floors):
        avr, avr_decimal = _ratio(x, d), _dec(x, d)
        if criterion.kind == "average":
            score, score_decimal = avr, avr_decimal
        else:
            score = _beta_decimal(key, den, places) if criterion.kind == "beta" else _ratio(key, den)
            score_decimal = _dec(key, den)
        records.append({
            "u": u,
            "monomial": monomial_text(u),
            "degree": u.bit_count(),
            "score": score,
            "score_decimal": score_decimal,
            "avr": avr,
            "avr_decimal": avr_decimal,
            "threshold_decimal": _dec(2 * floor + 1, 1 << 30),
        })
    if args.format == "json":
        print(_rank_json(m, criterion.label(), records))
    else:
        cols = ["u", "monomial", "degree", "score", "score_decimal",
                "avr", "avr_decimal", "threshold_decimal"]
        print(",".join(cols))
        for rec in records:
            print(",".join(str(rec[c]) for c in cols))
    return 0


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------


def cmd_poset(args: argparse.Namespace) -> int:
    m = args.m
    relation = _RELATIONS[args.relation]
    edges = orders.hasse_edges(m, relation)
    lines = [f"digraph poset_{args.relation}_m{m} {{"]
    for u in range(1 << m):
        lines.append(f'  u{u} [label="{Monomial(m, u)} ({u})"];')
    for a, b in edges:
        lines.append(f"  u{a} -> u{b};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        with open(args.dot, "w") as fh:
            fh.write(text)
        print(f"wrote {len(edges)} edges for {1 << m} nodes to {args.dot}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    _admit(args, {"synthesis": 1, "conversion": 1 << args.m})
    table = synthesis.synth_all(args.m)
    count = failures = 0
    for check in checks.REGISTRY:
        if args.suite not in ("all", check.suite) or not check.applies(args.m):
            continue
        count += 1
        detail = check.run(args.m, table)
        label = f"{check.name} m={check.examines(args.m)}"
        if detail is None:
            print(f"PASS {label}")
        else:
            failures += 1
            print(f"FAIL {label}: {detail}")
    print(f"{count - failures}/{count} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# distribution / avrplot
# ---------------------------------------------------------------------------


def cmd_distribution(args: argparse.Namespace) -> int:
    _admit(args, {"average walk": 1})
    counts = construction.avr_distribution(args.m)
    print("bucket_low,bucket_high,count")
    for i, c in enumerate(counts):
        print(f"0.{i},{'1.0' if i == 9 else f'0.{i + 1}'},{c}")
    return 0


def cmd_avrplot(args: argparse.Namespace) -> int:
    _admit(args, {"average walk": 1})
    nums, d = synthesis.average_numerators(args.m)
    lines = ["u,avr"] + [f"{u},{_dec(x, d)}" for u, x in enumerate(nums)]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {1 << args.m} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    a millisecond, a sizeable share of a small command, and parsing leaves
    it unchanged."""
    parser = argparse.ArgumentParser(
        prog="becpolar",
        description="Exact erasure-channel polynomials, order relations, and "
                    "average reliabilities of polar sub-channels.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("synth", help="channel polynomial coefficients and path counts")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--u", type=int, default=None, help="single channel label (default: all)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--force", action="store_true", help="run past the cost budget")
    sp.set_defaults(func=cmd_synth)

    sp = subs.add_parser("rank", help="order channels by a reliability criterion")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--by", required=True, help="avr | p=<rational> | beta=<decimal>")
    sp.add_argument("--k", type=int, default=None, help="emit only the best k channels")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--force", action="store_true", help="run past the cost budget")
    sp.set_defaults(func=cmd_rank)

    sp = subs.add_parser("poset", help="Hasse diagram in DOT format")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--relation", choices=tuple(_RELATIONS), required=True)
    sp.add_argument("--dot", required=True, help="output file ('-' for stdout)")
    sp.set_defaults(func=cmd_poset)

    sp = subs.add_parser("verify", help="run exact verification checks")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--suite", choices=checks.SUITES + ("all",), default="all")
    sp.add_argument("--force", action="store_true", help="run past the cost budget")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("distribution", help="decile histogram of average reliabilities")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--force", action="store_true", help="run past the cost budget")
    sp.set_defaults(func=cmd_distribution)

    sp = subs.add_parser("avrplot", help="per-channel average reliabilities as CSV")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out", required=True, help="output file ('-' for stdout)")
    sp.add_argument("--force", action="store_true", help="run past the cost budget")
    sp.set_defaults(func=cmd_avrplot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values may pass CPython's int-to-string limit (4300 digits, 0 is none):
    # commands bound the numbers they parse (`construction.check_number_size`).
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        check_m(args.m)  # every command takes --m: a label width, 1..MAX_M
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
