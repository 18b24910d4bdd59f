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

Exact scores are printed as num/den strings; decimal columns are
presentation-only renderings.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import checks, construction, orders, polynomials, synthesis
from .monomials import Monomial
from .orders import Relation

CLI_M_CAP = 10

_RELATIONS = {"w": Relation.WEAK, "std": Relation.STANDARD, "dom": Relation.DOMINANCE}


def _check_cap(m: int, force: bool) -> None:
    if m < 1:
        raise ValueError("m must be positive")
    if m > CLI_M_CAP and not force:
        raise ValueError(
            f"m={m} exceeds the default cap {CLI_M_CAP} "
            "(polynomial degree 2^m makes cost grow as 8^m); pass --force to override")


def _dec(value: Fraction, places: int = 6) -> str:
    return str(construction.render_avr(value, places))


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _channel_entry(m: int, u: int, table: synthesis.ChannelTable) -> dict:
    poly = table[u]
    pc = polynomials.to_path_counts(poly, 1 << m)
    return {
        "u": u,
        "monomial": str(Monomial(m, u)),
        "degree": Monomial(m, u).degree,
        "coeffs": list(poly.coeffs),
        "path_counts": list(pc.counts),
    }


def cmd_synth(args: argparse.Namespace) -> int:
    _check_cap(args.m, args.force)
    m = args.m
    if args.u is not None and not 0 <= args.u < (1 << m):
        raise ValueError(f"u={args.u} out of range for m={m}")
    labels = [args.u] if args.u is not None else range(1 << m)
    table = synthesis.synth_all(m, force=args.force)
    entries = [_channel_entry(m, u, table) for u in labels]
    if args.format == "json":
        print(json.dumps({"m": m, "channels": entries}, indent=2))
    else:
        print("u,i,coeff,path_count")
        for entry in entries:
            coeffs = entry["coeffs"] + [0] * ((1 << m) + 1 - len(entry["coeffs"]))
            for i, (c, npc) in enumerate(zip(coeffs, entry["path_counts"])):
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
            return construction.Criterion.pointwise_at(Fraction(text[2:]))
        if text.startswith("beta="):
            return construction.Criterion.beta_expansion(Decimal(text[5:]))
    except (ZeroDivisionError, decimal.InvalidOperation):  # p=a/0, beta=<not a decimal>
        raise ValueError(f"--by {text!r} is not a valid number") from None
    raise ValueError(f"--by must be 'avr', 'p=<rational>', or 'beta=<decimal>', got {text!r}")


def cmd_rank(args: argparse.Namespace) -> int:
    _check_cap(args.m, args.force)
    m = args.m
    criterion = _parse_criterion(args.by)
    k = args.k if args.k is not None else 1 << m
    if not 0 <= k <= (1 << m):
        raise ValueError(f"--k {k} out of range for m={m}")
    table = synthesis.synth_all(m, force=args.force)
    ranking = construction.rank(criterion, m, table)
    tol = Fraction(1, 2**30)
    records = []
    for u in ranking.order[:k]:
        avr = table.avr(u)
        score = ranking.scores[u]
        if isinstance(score, Fraction):
            score_str, score_dec = _frac(score), _dec(score)
        else:
            score_str, score_dec = str(score), str(
                score.quantize(Decimal("0.000001"), rounding=decimal.ROUND_HALF_UP))
        threshold = synthesis.threshold_estimate(table[u], tol)
        records.append({
            "u": u,
            "monomial": str(Monomial(m, u)),
            "degree": Monomial(m, u).degree,
            "score": score_str,
            "score_decimal": score_dec,
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
    _check_cap(args.m, args.force)
    table = synthesis.synth_all(args.m, force=args.force)
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
    _check_cap(args.m, args.force)
    table = synthesis.synth_all(args.m, force=args.force)
    counts = construction.avr_distribution(args.m, table)
    print("bucket_low,bucket_high,count")
    for i, c in enumerate(counts):
        print(f"0.{i},{'1.0' if i == 9 else f'0.{i + 1}'},{c}")
    return 0


def cmd_avrplot(args: argparse.Namespace) -> int:
    _check_cap(args.m, args.force)
    table = synthesis.synth_all(args.m, force=args.force)
    lines = ["u,avr"]
    for u in range(1 << args.m):
        lines.append(f"{u},{_dec(table.avr(u))}")
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


def build_parser() -> argparse.ArgumentParser:
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
