"""Command-line front end.

Subcommands: stats, avoid, map, dist, series, table, check, diagram.
Exit codes: 0 on success, 2 on a parse error, 3 on a domain error (an
operation applied outside its precondition), and 1 when a check suite
reports a failure.  Output is deterministic for a fixed argv; timings
never appear unless --timings is passed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from collections.abc import Sequence
from functools import partial

from . import bijections, enumeration, perms, qseries
from .perms import Perm, fmt_perm

ENV_NMAX = "CROSSPERM_NMAX"


class ParseError(Exception):
    """Malformed argv payload (bad word, bad pattern set, bad number)."""


# ---------------------------------------------------------------------------
# argv payload parsing


def parse_perm(tokens: Sequence[str]) -> Perm:
    """One-line notation: spaces or commas between values, or compact digits.

    Compact form ("24135867") is only readable for n <= 9; larger
    permutations need separators.
    """
    text = " ".join(tokens)
    parts = text.replace(",", " ").split()
    if not parts:
        raise ParseError("empty permutation")
    # str.isdigit admits digits that int rejects, such as the superscript 2
    try:
        if len(parts) == 1 and parts[0].isdigit() and len(parts[0]) > 1:
            values = [int(ch) for ch in parts[0]]
        else:
            values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"not a permutation word: {text!r}") from None
    try:
        return perms.as_perm(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_patterns(text: str) -> tuple[Perm, ...]:
    """Comma-separated reduced words in compact digits; '-' is the empty set."""
    if text == "-":
        return ()
    out = []
    for word in text.split(","):
        if not word.isdigit():
            raise ParseError(f"not a pattern word: {word!r}")
        try:
            out.append(perms.as_perm(int(ch) for ch in word))
        except ValueError:
            raise ParseError(f"not a reduced pattern word: {word!r}") from None
    return tuple(out)


def _fmt_pairs(pairs: Sequence[tuple[int, int]]) -> str:
    if not pairs:
        return "-"
    return " ".join(f"({a},{b})" for a, b in pairs)


def _emit(args, payload, lines: list[str]) -> None:
    """The one output path: the payload as JSON under --json, else the lines."""
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_stats(args) -> int:
    sigma = parse_perm(args.sigma)
    values = {name: stat(sigma) for name, stat in enumeration.STATISTICS.items()}
    crossings = sorted(perms.crossings(sigma))
    nestings = sorted(perms.nestings(sigma))
    payload = {
        "sigma": list(sigma),
        **values,
        "crossings": [list(p) for p in crossings],
        "nestings": [list(p) for p in nestings],
    }
    _emit(args, payload, [
        f"sigma = {fmt_perm(sigma)}",
        *(f"{name} = {value}" for name, value in values.items()),
        f"crossings = {_fmt_pairs(crossings)}",
        f"nestings = {_fmt_pairs(nestings)}",
    ])
    return 0


def _cmd_avoid(args) -> int:
    patterns = parse_patterns(args.patterns)
    if args.n < 0:
        raise ParseError(f"negative size: {args.n}")
    if args.list:
        members = list(enumeration.generate(args.n, patterns))
        print(len(members))
        for sigma in members:
            print(fmt_perm(sigma))
    else:
        print(sum(1 for _ in enumeration.generate(args.n, patterns)))
    return 0


# map kind -> the map; the order is the order of the argparse choices
_MAPS = {
    "theta": bijections.theta,
    "theta-inv": bijections.theta_inverse,
    "gamma": bijections.gamma,
    **{kind: partial(perms.involution, kind=kind) for kind in ("rci", "r", "c", "i", "rc")},
    "fk": bijections.f_k,
    "gk": bijections.g_k,
}


def _cmd_map(args) -> int:
    tokens, extra = args.sigma, ()
    if args.kind == "fk":  # f_k takes the position k after the word
        if len(tokens) < 2:
            raise ParseError("map fk needs a permutation followed by k")
        try:
            extra = (int(tokens[-1]),)
        except ValueError:
            raise ParseError(f"not an integer position: {tokens[-1]!r}") from None
        tokens = tokens[:-1]
    print(fmt_perm(_MAPS[args.kind](parse_perm(tokens), *extra)))
    return 0


def _cmd_dist(args) -> int:
    if args.n < 0:
        raise ParseError(f"negative size: {args.n}")
    query = enumeration.DistributionQuery(
        n=args.n,
        patterns=parse_patterns(args.patterns),
        statistic=args.stat,
        refinement=args.refine,
        k=args.k,
        j=args.j,
    )
    start = time.perf_counter()
    _, poly = enumeration.route(query)
    millis = (time.perf_counter() - start) * 1000.0
    payload = {
        **dataclasses.asdict(query),  # n, patterns, statistic, refinement, k, j
        "count": poly(1),
        "coefficients": poly.json_coeffs(),
    }
    lines = [poly.text()]
    if args.timings:
        payload["millis"] = round(millis, 3)
        lines.append(f"millis = {payload['millis']}")
    _emit(args, payload, lines)
    return 0


def _cmd_series(args) -> int:
    patterns = perms.pattern_set(parse_patterns(args.patterns))
    if args.order < 0:
        raise ParseError(f"negative order: {args.order}")
    sources, coeffs = zip(*(enumeration.route(enumeration.DistributionQuery(m, patterns))
                            for m in range(args.order + 1)))
    payload = {
        "patterns": [list(p) for p in patterns],
        "order": args.order,
        "source": sources[0],
        "coefficients": [c.json_coeffs() for c in coeffs],
    }
    _emit(args, payload, [
        f"source = {sources[0]}",
        *(f"z^{m}: {c.text()}" for m, c in enumerate(coeffs)),
    ])
    return 0


TABLE_NAMES = ("r", "a076791", "a299927", "pascal-corok")


def _table_rows(name: str, n_max: int) -> list[list[str]]:
    if n_max < 0:
        raise ParseError(f"negative table size: {n_max}")
    if name == "r":
        return [
            [entry.text() for entry in row] for row in qseries.r_table(n_max)
        ]
    if name in ("a076791", "a299927"):
        pats = ((3, 2, 1), (2, 3, 1)) if name == "a076791" else ((1, 2, 3), (1, 3, 2))
        polys = (enumeration.route(enumeration.DistributionQuery(n, pats))[1]
                 for n in range(n_max + 1))
        return [[str(c) for c in poly.json_coeffs()] for poly in polys]
    # pascal-corok: rows of (1+q)^(n-2), the refined corner distribution
    rows = []
    for n in range(2, n_max + 1):
        rows.append([str(c) for c in (qseries.QPoly((1, 1)) ** (n - 2)).json_coeffs()])
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args.name, args.n_max)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)
    return 0


def _cmd_check(args) -> int:
    known = enumeration.suite_names()
    if args.suite not in known:
        raise ParseError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(known))}"
        )
    n_max = args.nmax
    if n_max is None and ENV_NMAX in os.environ:
        raw = os.environ[ENV_NMAX]
        try:
            n_max = int(raw)
        except ValueError:
            raise ParseError(f"{ENV_NMAX} must be an integer, got {raw!r}") from None
    if n_max is not None and n_max < 0:
        raise ParseError(f"negative cap: {n_max}")
    report = enumeration.verify(args.suite, n_max, include_timings=args.timings)
    failures = sum(1 for c in report["checks"] if c["status"] != "pass")
    lines = []
    for c in report["checks"]:
        line = f"[{'pass' if c['status'] == 'pass' else 'FAIL'}] {c['name']} (n={c['n']})"
        if "counterexample" in c:
            line += f" counterexample: {c['counterexample']}"
        if "millis" in c:
            line += f" [{c['millis']} ms]"
        lines.append(line)
    lines.append(f"{report['suite']}: {len(report['checks']) - failures} passed, {failures} failed")
    _emit(args, report, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# SVG emission (static, SVG 1.1)


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def arc_diagram_svg(sigma: Perm) -> str:
    """Points 1..n on a line; arcs i -> sigma(i) above for excedances,
    below for deficiencies, a small loop for fixed points."""
    n = len(sigma)
    gap, margin, base = 40.0, 30.0, 80.0
    width = 2 * margin + gap * max(n - 1, 0)
    height = 160.0
    body = [
        f'<line x1="{margin:.1f}" y1="{base:.1f}" x2="{width - margin:.1f}" '
        f'y2="{base:.1f}" stroke="#999999" stroke-width="1"/>'
    ]
    for i, v in enumerate(sigma, start=1):
        x1 = margin + gap * (i - 1)
        x2 = margin + gap * (v - 1)
        if v == i:
            body.append(
                f'<circle cx="{x1:.1f}" cy="{base - 7:.1f}" r="6" fill="none" '
                'stroke="#444444" stroke-width="1.2"/>'
            )
            continue
        rx = abs(x2 - x1) / 2
        ry = min(55.0, rx * 0.75 + 5.0)
        # sweep=1 bows upward left-to-right (excedance) and downward
        # right-to-left (deficiency)
        body.append(
            f'<path d="M {x1:.1f} {base:.1f} A {rx:.1f} {ry:.1f} 0 0 1 '
            f'{x2:.1f} {base:.1f}" fill="none" stroke="#222222" stroke-width="1.3"/>'
        )
    for i in range(1, n + 1):
        x = margin + gap * (i - 1)
        body.append(f'<circle cx="{x:.1f}" cy="{base:.1f}" r="3" fill="#000000"/>')
        body.append(
            f'<text x="{x:.1f}" y="{base + 22:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{i}</text>'
        )
    return _svg_document(width, height, body)


_TUNNEL_COLORS = {"left": "#2b6cb0", "centered": "#c53030", "right": "#2f855a"}


def dyck_svg(path: str, with_tunnels: bool = False) -> str:
    """Diagonal up/down rendering; tunnels are dashed horizontal chords."""
    word = bijections.as_dyck(path)
    unit, margin = 14.0, 20.0
    heights = [0]
    for step in word:
        heights.append(heights[-1] + (1 if step == "u" else -1))
    top = max(heights) if len(heights) > 1 else 1
    width = 2 * margin + unit * len(word)
    height = 2 * margin + unit * top

    def xy(t: float, h: float) -> tuple[float, float]:
        return margin + unit * t, margin + unit * (top - h)

    x0, y0 = xy(0, 0)
    xn, _ = xy(len(word), 0)
    body = [
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{xn:.1f}" y2="{y0:.1f}" '
        'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="2 3"/>'
    ]
    if with_tunnels:
        for tunnel in bijections.tunnels(word):
            mid_h = heights[tunnel.up_index - 1] + 0.5
            xa, ya = xy(tunnel.up_index - 0.5, mid_h)
            xb, _ = xy(tunnel.down_index - 0.5, mid_h)
            color = _TUNNEL_COLORS[tunnel.kind]
            body.append(
                f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" y2="{ya:.1f}" '
                f'stroke="{color}" stroke-width="1.4" stroke-dasharray="5 3"/>'
            )
    points = " ".join(
        f"{xy(t, h)[0]:.1f},{xy(t, h)[1]:.1f}" for t, h in enumerate(heights)
    )
    body.append(
        f'<polyline points="{points}" fill="none" stroke="#000000" stroke-width="1.6"/>'
    )
    return _svg_document(width, height, body)


def _cmd_diagram(args) -> int:
    if args.kind == "arcs":
        content = arc_diagram_svg(parse_perm(args.data))
    else:
        word = "".join(args.data).lower()
        content = dyck_svg(word, with_tunnels=args.tunnels)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(content)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossperm",
        description="Crossing statistics over pattern-avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="all statistics and arc pair lists")
    p.add_argument("sigma", nargs="+", help="permutation in one-line notation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("avoid", help="size of S_n(T), optionally listed")
    p.add_argument("n", type=int)
    p.add_argument("patterns", help="comma-separated patterns, '-' for none")
    p.add_argument("--list", action="store_true", help="list the class members")
    p.set_defaults(fn=_cmd_avoid)

    p = sub.add_parser("map", help="apply a bijection or symmetry")
    p.add_argument("kind", choices=tuple(_MAPS))
    p.add_argument("sigma", nargs="+", help="permutation (fk takes a trailing k)")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("dist", help="statistic distribution over S_n(T)")
    p.add_argument("n", type=int)
    p.add_argument("patterns")
    p.add_argument("stat", choices=tuple(enumeration.STATISTICS))
    p.add_argument(
        "--refine",
        choices=enumeration.REFINEMENTS,
        default="none",
        help="restrict the class: one-at/both fix the position of value 1, "
        "last fixes the final value, tail fixes a terminal staircase",
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("series", help="F(T;q,z) truncated to a given order")
    p.add_argument("patterns")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("table", help="coefficient triangles as CSV")
    p.add_argument("name", choices=TABLE_NAMES)
    p.add_argument("n_max", type=int)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--nmax", type=int, default=None, help=f"cap (else ${ENV_NMAX})")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("diagram", help="emit a static SVG")
    p.add_argument("kind", choices=("arcs", "dyck"))
    p.add_argument("data", nargs="+", help="permutation, or u/d Dyck word")
    p.add_argument("--tunnels", action="store_true", help="draw tunnel chords")
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(fn=_cmd_diagram)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
