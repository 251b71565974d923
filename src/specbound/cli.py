"""Command-line front end: spectra, exact characteristic polynomials, root
bounds, constructions, exhaustive certification, and the reference tables.

Exit codes: 0 success / bound holds, 1 usage or input error, 2 a check
failed or a certifier returned VIOLATED.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bounds, certify, spectra
from . import graphs as G

_CONSTRUCT_HELP = (
    "construction mini-language: C7, P5, K4, Kst s t, SK a b, S3 a b, "
    "Sodd a b k, Bk k, StarPlus m, Blowup BASE s1,s2,..., 2P2, or a gallery "
    "name (H1..H3, T0..T6)"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_construction(tokens: list[str]) -> G.Graph:
    if not tokens:
        raise G.GraphError("empty construction")
    head, rest = tokens[0], tokens[1:]

    def ints(k: int) -> list[int]:
        if len(rest) != k:
            raise G.GraphError(f"{head} expects {k} argument(s)")
        return [int(x) for x in rest]

    if head == "2P2":
        return G.disjoint_union(G.path(2), G.path(2))
    if head in G.PatternId.__members__:
        return G.pattern(G.PatternId[head])
    if re.fullmatch(r"C\d+", head):
        return G.cycle(int(head[1:]))
    if re.fullmatch(r"P\d+", head):
        return G.path(int(head[1:]))
    if re.fullmatch(r"K\d+", head):
        return G.complete(int(head[1:]))
    if head == "Kst":
        s, t = ints(2)
        return G.complete_bipartite(s, t)
    if head == "SK":
        a, b = ints(2)
        return G.sk(a, b)
    if head == "S3":
        a, b = ints(2)
        return G.s_odd(a, b, 2)
    if head == "Sodd":
        a, b, k = ints(3)
        return G.s_odd(a, b, k)
    if head == "Bk":
        return G.book(ints(1)[0])
    if head == "StarPlus":
        return G.star_plus_edge(ints(1)[0])
    if head == "Blowup":
        if len(rest) != 2:
            raise G.GraphError("Blowup expects BASE and a size list")
        base = parse_construction([rest[0]])
        sizes = [int(x) for x in rest[1].split(",")]
        return G.blow_up(base, sizes)
    raise G.GraphError(f"unknown construction {head!r}; {_CONSTRUCT_HELP}")


def _input_graph(args) -> G.Graph:
    if args.construct:
        return parse_construction(args.construct)
    if args.graph6 is None:
        raise G.GraphError("need a graph6 string or --construct")
    return G.from_graph6(args.graph6)


def cmd_spectrum(args) -> int:
    g = _input_graph(args)
    s = spectra.eigenvalues(g)
    p = args.precision
    print(" ".join(f"{v:.{p}f}" for v in s.values))
    print(f"sum lambda      = {sum(s.values):.{p}f}")
    print(f"sum lambda^2    = {sum(v * v for v in s.values):.{p}f}   (2m = {2 * g.m})")
    tri = spectra.triangle_count_trace(s)
    print(f"sum lambda^3 /6 = {tri:.{p}f}   (triangles = {G.triangle_count(g)})")
    return 0


def cmd_charpoly(args) -> int:
    g = _input_graph(args)
    cp = spectra.char_poly(g)
    terms = []
    for k in range(cp.degree, -1, -1):
        c = cp.coeffs[k]
        if c == 0:
            continue
        mag = "" if (abs(c) == 1 and k > 0) else str(abs(c))
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        terms.append(("- " if c < 0 else "+ ") + (mag + var if mag or var else "1"))
    poly = " ".join(terms).lstrip("+ ") or "0"
    print(f"det(xI - A) = {poly}")
    print("coefficients (c0..cn):", " ".join(str(c) for c in cp.coeffs))
    return 0


def cmd_bounds(args) -> int:
    m = args.m
    if m < 5:
        raise G.GraphError("bounds need m >= 5")
    p = args.precision

    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    b = bounds.beta(m)
    print(f"m = {m}")
    print(f"sqrt(m)   = {m ** 0.5:.{p}f}")
    print(f"sqrt(m-1) = {(m - 1) ** 0.5:.{p}f}")
    print(f"sqrt(m-2) = {(m - 2) ** 0.5:.{p}f}")
    print(f"beta(m)   = {b:.{p}f}   "
          f"sqrt(m-2) < beta <= sqrt(m-1): "
          f"{mark((m - 2) ** 0.5 < b <= (m - 1) ** 0.5)}")
    if m >= 7:
        c = bounds.gamma(m)
        print(f"sqrt(m-3) = {(m - 3) ** 0.5:.{p}f}")
        print(f"sqrt(m-4) = {(m - 4) ** 0.5:.{p}f}")
        print(f"gamma(m)  = {c:.{p}f}   "
              f"sqrt(m-4) < gamma <= sqrt(m-3): "
              f"{mark((m - 4) ** 0.5 < c <= (m - 3) ** 0.5)}")
    else:
        print("gamma(m)  omitted: defined for m >= 7")
    return 0


def cmd_construct(args) -> int:
    g = parse_construction(args.construct)
    print(G.to_graph6(g))
    print(f"n = {g.n}  m = {g.m}  triangle-free = {G.is_triangle_free(g)}  "
          f"bipartite = {G.is_bipartite(g)}  odd girth = {G.odd_girth(g)}")
    return 0


_GALLERY_BUILDERS = {
    "C7": lambda: G.cycle(7),
    "C9": lambda: G.cycle(9),
    **{p.value: (lambda p=p: G.pattern(p)) for p in G.PatternId
       if p.value in G.GALLERY_SPECTRA},
}


def cmd_tables(args) -> int:
    ok = True
    for title, names in (
        ("forbidden subgraphs on a 5-cycle", ["C7", "H1", "H2", "H3"]),
        ("forbidden subgraphs on a 7-cycle", ["C9", "T1", "T2", "T3", "T4", "T5", "T6"]),
    ):
        print(title)
        for name in names:
            expected = G.GALLERY_SPECTRA[name]
            got = spectra.eigenvalues(_GALLERY_BUILDERS[name]()).values
            bad = [
                i for i, (e, v) in enumerate(zip(expected, got))
                if abs(e - v) > 1e-3
            ] if len(got) == len(expected) else list(range(len(expected)))
            cells = " ".join(f"{v:7.3f}" for v in got)
            status = "ok" if not bad else f"MISMATCH at {bad}"
            print(f"  {name:<3} {cells}  [{status}]")
            ok = ok and not bad
        print()
    return 0 if ok else 2


_CERTIFIERS = {
    "mantel": lambda a: certify.certify_mantel(a.param),
    "erdos": lambda a: certify.certify_erdos(a.param),
    "nosal": lambda a: certify.certify_nosal(a.param, a.jobs),
    "lnw": lambda a: certify.certify_lnw_sum(a.param, a.jobs),
    "thm15": lambda a: certify.certify_thm15(a.param, a.jobs),
    "zhai-shu": lambda a: certify.certify_zhai_shu(a.param, a.jobs),
    "main": lambda a: certify.certify_main(a.param, a.jobs),
    "conj51": lambda a: certify.certify_conj51(a.param, a.k, a.jobs),
}


def cmd_certify(args) -> int:
    if args.theorem == "booksize":
        report = certify.explore_booksize(args.param, args.jobs)
        ok = report.nikiforov_ok
    else:
        report = _CERTIFIERS[args.theorem](args)
        ok = report.verdict != "VIOLATED"
    print(report.render_text())
    if args.json:
        certify.report_to_json(report, args.json)
    return 0 if ok else 2


def cmd_enumerate(args) -> int:
    filt = certify.ClassFilter(
        connected=args.connected,
        triangle_free=args.triangle_free,
        c5_free=args.c5_free,
        non_bipartite=args.non_bipartite,
        odd_girth_min=args.odd_girth_min,
    )
    for g in certify.enumerate_graphs(args.m, filt, args.jobs):
        print(G.to_graph6(G.canonical_graph(g)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="specbound")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument("graph6", nargs="?", help="graph6 string")
        p.add_argument("--construct", nargs="+", metavar="TOKEN",
                       help=_CONSTRUCT_HELP)

    p = sub.add_parser("spectrum", help="eigenvalues and trace identities")
    add_graph_input(p)
    p.add_argument("--precision", type=int, default=6)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    add_graph_input(p)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("bounds", help="beta(m), gamma(m) and bracket checks")
    p.add_argument("m", type=int)
    p.add_argument("--precision", type=int, default=10)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("construct", help="emit a construction as graph6")
    p.add_argument("construct", nargs="+", metavar="TOKEN", help=_CONSTRUCT_HELP)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("tables", help="reproduce the reference eigenvalue tables")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("certify", help="exhaustive desk-scale certification")
    p.add_argument("theorem", choices=sorted(_CERTIFIERS) + ["booksize"])
    p.add_argument("param", type=int, help="edge count m (vertex count for mantel/erdos)")
    p.add_argument("--k", type=int, default=3, help="odd-girth parameter for conj51")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("enumerate", help="list isomorphism classes as graph6")
    p.add_argument("m", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--c5-free", action="store_true")
    p.add_argument("--non-bipartite", action="store_true")
    p.add_argument("--odd-girth-min", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("explore", help="exploratory surveys (booksize, conj51)")
    psub = p.add_subparsers(dest="survey", required=True)
    pb = psub.add_parser("booksize")
    pb.add_argument("param", type=int)
    pb.add_argument("--jobs", type=int, default=1)
    pb.add_argument("--json", metavar="PATH")
    pb.set_defaults(fn=cmd_certify, theorem="booksize")
    pc = psub.add_parser("conj51")
    pc.add_argument("param", type=int)
    pc.add_argument("--k", type=int, default=3)
    pc.add_argument("--jobs", type=int, default=1)
    pc.add_argument("--json", metavar="PATH")
    pc.set_defaults(fn=cmd_certify, theorem="conj51")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except G.Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (G.GraphError, bounds.BoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
