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

from . import checks, construction, orders, polynomials, synthesis
from .monomials import Monomial, check_m
from .orders import Relation

_RELATIONS = {"w": Relation.WEAK, "std": Relation.STANDARD, "dom": Relation.DOMINANCE}

# synth_all took 0.05 s at m = 8, 0.45-0.48 s at m = 9 and 7.1-7.9 s at
# m = 10, up to 11.4 s in a slow phase of the 2-core shared host (CPython
# 3.11): each stage doubles both degree and coefficient size, and took about
# ten and fifteen times the last.  It caps synth --u and rank --by p=.
SYNTH_CAP = 10

# verify and synth of every channel convert each channel with the comb-based
# to_path_counts: 0.04 s a channel at m = 8 (11 s for all), 0.41-0.66 s at
# m = 9 (5 min for all), about sixteen times the last per stage (2-core host).
CONVERT_CAP = 8

# rank --by p=a/q writes every score over q^(2^m), up to 2^m * digits(q)
# digits.  rank --k 1 with a 99-digit q took 0.5 s at m = 7, 2.9-4.3 s at
# m = 8 and 25 s at m = 9; at m = 9 with 50 digits 8.2 s; and at m = 10,
# 10.0 s with 1 digit, 19.4 s with 9 and 44 s with 25 (2-core host).  The cap keeps
# the scoring within about the 10 s that synthesis takes at its own cap.
SCORE_DIGITS_CAP = 10_000

# distribution, avrplot and rank --by avr|beta build no polynomial: the
# average walk of every label took 0.19 s at m = 11, 1.6 s at m = 12 and
# 12.6 s at m = 13 (2-core host), about eight times the last per stage.
AVERAGE_CAP = 13


def _admit(args: argparse.Namespace, layer: str) -> None:
    """Refuse a request's m before any work: outside 1..MAX_M always
    (`monomials.check_m`), and above the cap of the command's costliest
    `layer` unless --force is given."""
    check_m(args.m)
    cap, growth = {"synthesis": (SYNTH_CAP, "tenfold"), "conversion": (CONVERT_CAP, "sixteenfold"),
                   "average walk": (AVERAGE_CAP, "eightfold")}[layer]
    if args.m > cap and not args.force:
        raise ValueError(f"m={args.m} exceeds the {layer} cap {cap} (cost grows {growth} "
                         "per stage); pass --force to override")


def _dec(value: Fraction) -> str:
    return str(construction.render_avr(value, 6))


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _beta_decimal(score: Fraction, beta: Decimal, m: int) -> str:
    """A beta score, a sum of powers below beta^m, written exactly as a
    decimal without trailing zeros."""
    places = (m - 1) * max(0, -beta.as_tuple().exponent)
    text = format(construction.render_avr(score, places), "f")
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
    _admit(args, "synthesis" if args.u is not None else "conversion")
    m = args.m
    if args.u is not None and not 0 <= args.u < (1 << m):
        raise ValueError(f"u={args.u} out of range for m={m}")
    if args.u is not None:
        polys = [(args.u, synthesis.synth_poly(Monomial(m, args.u)))]
    else:
        polys = enumerate(synthesis.synth_labels(m))
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


def cmd_rank(args: argparse.Namespace) -> int:
    """Rank every channel; print the best k with their averages and thresholds.

    Thresholds come from the label by integer square roots
    (`channel_threshold`), and averages from the moment recursion
    (`average_numerators`), so only `p=` builds a polynomial: it scores from
    the full table.  `avr` reads each listed average off its own ranking
    scores; `p=` and `beta=` run the recursion on the k listed labels only.
    """
    criterion = _parse_criterion(args.by)
    _admit(args, "synthesis" if criterion.kind == "pointwise" else "average walk")
    m = args.m
    if criterion.kind == "pointwise":
        digits = (1 << m) * len(str(criterion.p.denominator))
        if digits > SCORE_DIGITS_CAP and not args.force:
            raise ValueError(f"p={criterion.p} at m={m} scores over q^{1 << m}, up to {digits} "
                             f"digits, above the cap {SCORE_DIGITS_CAP}; pass --force to override")
    k = args.k if args.k is not None else 1 << m
    if not 0 <= k <= (1 << m):
        raise ValueError(f"--k {k} out of range for m={m}")
    ranking = construction.rank(criterion, m)
    listed = ranking.order[:k]
    if criterion.kind == "average":
        avrs = [ranking.score(u) for u in listed]
    else:
        nums, d = synthesis.average_numerators(m, listed)
        avrs = [Fraction(x, d) for x in nums]
    tol = Fraction(1, 2**30)
    records = []
    for u, avr in zip(listed, avrs):
        score = ranking.score(u)
        exact = _beta_decimal(score, criterion.beta, m) if criterion.kind == "beta" else _frac(score)
        threshold = synthesis.channel_threshold(Monomial(m, u), tol)
        records.append({
            "u": u,
            "monomial": str(Monomial(m, u)),
            "degree": Monomial(m, u).degree,
            "score": exact,
            "score_decimal": _dec(score),
            "avr": _frac(avr),
            "avr_decimal": _dec(avr),
            "threshold_decimal": _dec(threshold),
        })
    if args.format == "json":
        print(json.dumps({"m": m, "criterion": criterion.label(), "records": records}, indent=2))
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
    check_m(args.m)
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
    _admit(args, "conversion")
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
    _admit(args, "average walk")
    counts = construction.avr_distribution(args.m)
    print("bucket_low,bucket_high,count")
    for i, c in enumerate(counts):
        print(f"0.{i},{'1.0' if i == 9 else f'0.{i + 1}'},{c}")
    return 0


def cmd_avrplot(args: argparse.Namespace) -> int:
    _admit(args, "average walk")
    nums, d = synthesis.average_numerators(args.m)
    lines = ["u,avr"] + [f"{u},{construction.render_avr(x, 6, d)}" for u, x in enumerate(nums)]
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
    sp.add_argument("--force", action="store_true", help="override the m cap")
    sp.set_defaults(func=cmd_synth)

    sp = subs.add_parser("rank", help="order channels by a reliability criterion")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--by", required=True, help="avr | p=<rational> | beta=<decimal>")
    sp.add_argument("--k", type=int, default=None, help="emit only the best k channels")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--force", action="store_true", help="override the m cap")
    sp.set_defaults(func=cmd_rank)

    sp = subs.add_parser("poset", help="Hasse diagram in DOT format")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--relation", choices=tuple(_RELATIONS), required=True)
    sp.add_argument("--dot", required=True, help="output file ('-' for stdout)")
    sp.set_defaults(func=cmd_poset)

    sp = subs.add_parser("verify", help="run exact verification checks")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--suite", choices=checks.SUITES + ("all",), default="all")
    sp.add_argument("--force", action="store_true", help="override the m cap")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("distribution", help="decile histogram of average reliabilities")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--force", action="store_true", help="override the m cap")
    sp.set_defaults(func=cmd_distribution)

    sp = subs.add_parser("avrplot", help="per-channel average reliabilities as CSV")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out", required=True, help="output file ('-' for stdout)")
    sp.add_argument("--force", action="store_true", help="override the m cap")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
