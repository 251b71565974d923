"""Command-line front end: spectra, exact characteristic polynomials, root
bounds, constructions, exhaustive certification, the certification sweep,
and the reference tables.

Exit codes: 0 success / bound holds, 1 usage or input error, 2 a check
failed or a certifier returned VIOLATED.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import re
import sys
import time
from collections.abc import Callable
from contextlib import suppress
from functools import partial
from itertools import count

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


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`, checked at parse
    time so that a bad value prints nothing but the usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_JOBS = _int_at_least(1)
_PRECISION = _int_at_least(0)


def _construction(tokens: list[str]) -> tuple[int, Callable[[], G.Graph]]:
    """The vertex count of a construction and a function that builds it.
    The count comes from the words' arguments, so a size check can come
    before any edge is built."""
    if not tokens:
        raise G.GraphError("empty construction")
    head, rest = tokens[0], tokens[1:]
    if head == "Blowup":
        if len(rest) != 2:
            raise G.GraphError("Blowup expects BASE and a size list")
        base_n, base = _construction([rest[0]])
        sizes = [int(x) for x in rest[1].split(",")]
        # one size >= 1 per base vertex makes the sum at least the base's
        # count; for a list that blow_up rejects, the max still keeps an
        # oversized base from being built
        return (max(base_n, sum(sizes)),
                lambda: G.blow_up(base(), sizes))
    # word -> (argument count, graph function, vertex count from the
    # arguments); C<n>, P<n> and K<n> stand for C7, P5, K4, ..., whose size
    # reaches both functions as their first argument.  A gallery graph is fixed and small, so
    # its count is read off a build.
    words = {
        "C<n>": (0, G.cycle, lambda n: n),
        "P<n>": (0, G.path, lambda n: n),
        "K<n>": (0, G.complete, lambda n: n),
        "2P2": (0, lambda: G.disjoint_union(G.path(2), G.path(2)),
                lambda: 4),
        **{pid.name: (0, partial(G.pattern, pid),
                      lambda pid=pid: G.pattern(pid).n)
           for pid in G.PatternId},
        "Kst": (2, G.complete_bipartite, lambda s, t: s + t),
        "SK": (2, G.sk, lambda a, b: a + b + 1),
        "S3": (2, lambda a, b: G.s_odd(a, b, 2), lambda a, b: a + b + 3),
        "Sodd": (3, G.s_odd, lambda a, b, k: a + b + 2 * k - 1),
        "Bk": (1, G.book, lambda k: k + 2),
        "StarPlus": (1, G.star_plus_edge, lambda m: m),
    }
    sized = re.fullmatch(r"([CPK])(\d+)", head)
    word, size = (f"{sized[1]}<n>", [sized[2]]) if sized else (head, [])
    if "<" in head or word not in words:  # "C<n>" itself is no word
        raise G.GraphError(f"unknown construction {head!r}; {_CONSTRUCT_HELP}")
    count, build, order = words[word]
    if len(rest) != count:
        raise G.GraphError(f"{head} expects {count} argument(s)")
    args = [int(x) for x in size + rest]
    return order(*args), partial(build, *args)


def parse_construction(tokens: list[str]) -> G.Graph:
    return _construction(tokens)[1]()


def _input_graph(args, max_n: float = math.inf, limited: str = "") -> G.Graph:
    """The graph of a command's input.  A construction with more than
    max_n vertices is rejected as `limited` rejects it, before it is built;
    a graph6 string is read as given."""
    if args.construct:
        n, build = _construction(args.construct)
        if n > max_n:
            raise G.SizeLimitError(f"{limited} limited to n <= {max_n}")
        return build()
    if args.graph6 is None:
        raise G.GraphError("need a graph6 string or --construct")
    return G.from_graph6(args.graph6)


def cmd_spectrum(args) -> int:
    g = _input_graph(args)  # the eigensolver has no size limit
    s = spectra.eigenvalues(g)
    p = args.precision
    print(" ".join(f"{v:.{p}f}" for v in s.values))
    print(f"sum lambda      = {sum(s.values):.{p}f}")
    print(f"sum lambda^2    = {sum(v * v for v in s.values):.{p}f}   (2m = {2 * g.m})")
    tri = spectra.triangle_count_trace(s)
    print(f"sum lambda^3 /6 = {tri:.{p}f}   (triangles = {G.triangle_count(g)})")
    return 0


def cmd_charpoly(args) -> int:
    g = _input_graph(args, spectra.CHARPOLY_MAX_N, "char_poly")
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
    failed = False

    def mark(rb: bounds.RootBracket, s: int, t: int) -> str:
        nonlocal failed
        if rb.root_between_sqrts(s, t):
            return "ok"
        failed = True
        return "FAIL"

    # every bracket before any output, so that an error leaves stdout empty
    windows = [(name, d, bracket(m)) for name, d, bracket in
               (("beta", 1, bounds.beta_bracket),
                ("gamma", 3, bounds.gamma_bracket)) if m >= d + 4]
    print(f"m = {m}")
    print(f"sqrt(m)   = {m ** 0.5:.{p}f}")
    for name, d, rb in windows:
        s, t = m - d - 1, m - d
        print(f"sqrt(m-{d}) = {t ** 0.5:.{p}f}")
        print(f"sqrt(m-{d + 1}) = {s ** 0.5:.{p}f}")
        lo, hi = f"{rb.lo:.{p}f}", f"{rb.hi:.{p}f}"
        # ends that print apart: the midpoint could print outside the window
        value = f"= {rb.value:.{p}f}" if lo == hi else f"in ({lo}, {hi}]"
        print(f"{name + '(m)':<9} {value}   sqrt(m-{d + 1}) < {name} <= "
              f"sqrt(m-{d}): {mark(rb, s, t)}")
    if m < 7:
        print("gamma(m)  omitted: defined for m >= 7")
    return 2 if failed else 0


def cmd_construct(args) -> int:
    g = _input_graph(args, G.GRAPH6_MAX_N, "graph6 writer")
    print(G.to_graph6(g))
    print(f"n = {g.n}  m = {g.m}  triangle-free = {G.is_triangle_free(g)}  "
          f"bipartite = {G.is_bipartite(g)}  odd girth = {G.odd_girth(g)}")
    return 0


def cmd_tables(args) -> int:
    ok = True
    for title, names in (
        ("forbidden subgraphs on a 5-cycle", ["C7", "H1", "H2", "H3"]),
        ("forbidden subgraphs on a 7-cycle", ["C9", "T1", "T2", "T3", "T4", "T5", "T6"]),
    ):
        print(title)
        for name in names:
            expected = G.GALLERY_SPECTRA[name]
            got = spectra.eigenvalues(parse_construction([name])).values
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


def cmd_sweep(args) -> int:
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'theorem':<10} {'param':>5} {'classes':>8} {'max':>13} "
          f"{'bound':>13} {'verdict':<22} {'secs':>6}")
    bad = 0
    t0 = time.perf_counter()
    # (certifiers run at each parameter, first parameter, step): a row
    # runs until its certifiers reach their budget, where the check raises
    # before it builds anything; conj51 runs at k = 3, the open case
    for theorems, first, step in ((("nosal", "lnw"), 3, 1),
                                  (("thm15", "zhai-shu"), 5, 1),
                                  (("main",), 7, 1), (("mantel",), 4, 1),
                                  (("erdos",), 5, 1), (("conj51",), 9, 2)):
        with suppress(certify.BudgetError):
            for param in count(first, step):
                for theorem in theorems:
                    r = _CERTIFIERS[theorem](
                        argparse.Namespace(param=param, k=3, jobs=args.jobs))
                    name = "conj51-k3" if theorem == "conj51" else theorem
                    print(f"{name:<10} {param:>5} {r.graphs_examined:>8} "
                          f"{r.max_lambda:>13.8f} {r.bound:>13.8f} "
                          f"{r.verdict:<22} {r.wall_time:>6.2f}")
                    bad += r.verdict == "VIOLATED"
                    if args.json_dir:
                        certify.report_to_json(
                            r, args.json_dir / f"{name}-{param}.json")
    print(f"total wall time {time.perf_counter() - t0:.1f}s, "
          f"{bad} violation(s)")
    return 2 if bad else 0


def cmd_enumerate(args) -> int:
    filt = certify.ClassFilter(
        connected=args.connected,
        triangle_free=args.triangle_free,
        c5_free=args.c5_free,
        non_bipartite=args.non_bipartite,
        odd_girth_min=args.odd_girth_min,
    )
    for g in certify.enumerate_graphs(args.m, filt, args.jobs):
        print(G.canonical_form(g).decode())
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
    p.add_argument("--precision", type=_PRECISION, default=6)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    add_graph_input(p)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("bounds", help="beta(m), gamma(m) and bracket checks")
    p.add_argument("m", type=int)
    p.add_argument("--precision", type=_PRECISION, default=10)
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
    p.add_argument("--jobs", type=_JOBS, default=1)
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("sweep", help="every certifier at every parameter in "
                       "budget, one row per check")
    p.add_argument("--jobs", type=_JOBS, default=1)
    p.add_argument("--json-dir", type=pathlib.Path, metavar="DIR",
                   help="also write each report as DIR/<theorem>-<param>.json")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("enumerate", help="list isomorphism classes as graph6")
    p.add_argument("m", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--c5-free", action="store_true")
    p.add_argument("--non-bipartite", action="store_true")
    p.add_argument("--odd-girth-min", type=_int_at_least(3), default=None)
    p.add_argument("--jobs", type=_JOBS, default=1)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("explore", help="exploratory surveys (booksize, conj51)")
    psub = p.add_subparsers(dest="survey", required=True)
    pb = psub.add_parser("booksize")
    pb.add_argument("param", type=int)
    pb.add_argument("--jobs", type=_JOBS, default=1)
    pb.add_argument("--json", metavar="PATH")
    pb.set_defaults(fn=cmd_certify, theorem="booksize")
    pc = psub.add_parser("conj51")
    pc.add_argument("param", type=int)
    pc.add_argument("--k", type=int, default=3)
    pc.add_argument("--jobs", type=_JOBS, default=1)
    pc.add_argument("--json", metavar="PATH")
    pc.set_defaults(fn=cmd_certify, theorem="conj51")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (G.GraphError, bounds.BoundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
