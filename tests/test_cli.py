import dataclasses
import json
import os
import subprocess
import sys

import pytest

import specbound
from specbound import bounds, certify, graphs
from specbound.cli import _construction, main, parse_construction
from specbound.graphs import (
    canonical_form,
    complete_bipartite,
    cycle,
    pattern,
    PatternId,
    sk,
    s_odd,
)


def run(capsys, *argv):
    """Exit code, stdout and stderr of `specbound ARGV`; a usage error
    (SystemExit from the parser) gives its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """`python -m specbound ARGV` in a child process, importing this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(specbound.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "specbound", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


class TestConstructionLanguage:
    def test_tokens(self):
        cases = [
            (["C7"], cycle(7)),
            (["Kst", "2", "4"], complete_bipartite(2, 4)),
            (["SK", "2", "4"], sk(2, 4)),
            (["S3", "2", "3"], s_odd(2, 3, 2)),
            (["Sodd", "2", "2", "3"], cycle(9)),
            (["H2"], pattern(PatternId.H2)),
            (["T5"], pattern(PatternId.T5)),
        ]
        for tokens, want in cases:
            got = parse_construction(tokens)
            assert canonical_form(got) == canonical_form(want)

    @pytest.mark.parametrize("tokens, n, edges", [
        ("C5", 5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))),
        ("P4", 4, ((0, 1), (1, 2), (2, 3))),
        ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        ("2P2", 4, ((0, 1), (2, 3))),
        ("H1", 6, ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4))),
        ("T6", 9, ((0, 1), (0, 6), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5),
                   (5, 6), (7, 8))),
        ("Kst 2 3", 5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
        ("SK 2 3", 6, ((0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                       (2, 5))),
        ("S3 2 2", 7, ((0, 3), (0, 4), (1, 2), (1, 3), (2, 6), (4, 5),
                       (5, 6))),
        ("Sodd 2 2 2", 7, ((0, 3), (0, 4), (1, 2), (1, 3), (2, 6), (4, 5),
                           (5, 6))),
        ("Bk 2", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
        ("StarPlus 4", 4, ((0, 1), (0, 2), (0, 3), (1, 2))),
        ("Blowup P3 1,2,1", 4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    ])
    def test_exact_graph_per_word(self, tokens, n, edges):
        g = parse_construction(tokens.split())
        assert (g.n, g.edges) == (n, edges)

    @pytest.mark.parametrize("argv, word, count", [
        (("construct", "C3", "extra"), "C3", 0),
        (("construct", "H1", "x"), "H1", 0),
        (("spectrum", "--construct", "2P2", "x"), "2P2", 0),
        (("charpoly", "--construct", "Kst", "2", "3", "4"), "Kst", 2),
    ])
    def test_extra_tokens_exit_1(self, capsys, argv, word, count):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {word} expects {count} argument(s)\n"

    @pytest.mark.parametrize("tokens", [
        "C5", "P4", "K6", "2P2", *(pid.name for pid in PatternId),
        "Kst 2 3", "SK 2 3", "S3 2 2", "Sodd 2 3 3", "Bk 3", "StarPlus 5",
        "Blowup P3 1,2,1", "Blowup C5 2,1,3,1,1",
    ])
    def test_vertex_count_before_building(self, tokens):
        n, build = _construction(tokens.split())
        assert n == build().n

    @pytest.mark.parametrize("argv, function, message", [
        (("construct", "Kst", "500", "500"), "complete_bipartite",
         "graph6 writer limited to n <= 62"),
        (("construct", "Blowup", "K100000", "2"), "complete",
         "graph6 writer limited to n <= 62"),
        (("charpoly", "--construct", "SK", "16", "16"), "complete_bipartite",
         "char_poly limited to n <= 32"),
    ])
    def test_oversized_construction_fails_unbuilt(self, capsys, monkeypatch,
                                                  argv, function, message):
        """The writer's or the solver's size error, before any edge."""
        def unbuilt(*args):
            raise AssertionError(f"{function} was called")

        monkeypatch.setattr(graphs, function, unbuilt)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_blowup_token(self):
        g = parse_construction(["Blowup", "P2", "3,4"])
        assert canonical_form(g) == canonical_form(complete_bipartite(3, 4))

    def test_bad_token(self):
        with pytest.raises(Exception):
            parse_construction(["Q9"])


class TestCommands:
    def test_tables_pass(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "MISMATCH" not in out
        assert "T6" in out

    def test_spectrum_construct(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--construct", "C7")
        assert code == 0
        assert out.splitlines()[0].startswith("2.000000 1.246980")

    def test_spectrum_k1_graph6(self, capsys):
        code, out, _ = run(capsys, "spectrum", "@")
        assert code == 0
        assert out.splitlines()[0] == "0.000000"

    def test_spectrum_sk_matches_beta(self, capsys):
        from specbound.bounds import beta
        code, out, _ = run(capsys, "spectrum", "--precision", "10",
                           "--construct", "SK", "2", "4")
        lam1 = float(out.split()[0])
        assert abs(lam1 - beta(9)) < 1e-8

    def test_bad_graph6_exit_1_with_position(self, capsys):
        code, _, err = run(capsys, "spectrum", "D?~")
        assert code == 1
        assert "byte" in err

    def test_charpoly(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--construct", "Kst", "1", "1")
        assert code == 0
        assert "x^2 - 1" in out

    def test_charpoly_k16_16(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--construct", "Kst", "16", "16")
        assert code == 0
        assert "det(xI - A) = x^32 - 256x^30\n" in out

    def test_bounds_m7(self, capsys):
        code, out, _ = run(capsys, "bounds", "7")
        assert code == 0
        assert "gamma(m)  = 2.0000000000" in out
        assert "FAIL" not in out

    def test_bounds_m6_gamma_omitted(self, capsys):
        code, out, _ = run(capsys, "bounds", "6")
        assert code == 0
        assert "omitted" in out

    def test_bounds_large_m_gap(self, capsys):
        code, out, _ = run(capsys, "bounds", "1000000")
        assert code == 0
        lines = {l.split("=")[0].strip(): float(l.split("=")[1].split()[0])
                 for l in out.splitlines() if "=" in l and "omitted" not in l}
        assert lines["beta(m)"] - lines["sqrt(m-2)"] < 1e-2

    @pytest.mark.parametrize("m", [284281998, 10 ** 12, 7442236220484276])
    def test_bounds_decided_exactly_at_large_m(self, capsys, m):
        """At these m the float square roots cannot separate the root from
        the window's ends; the checks are decided in integers.  At the last
        m, sqrt(m-2) and sqrt(m-1) both round to one float below beta(m)."""
        code, out, _ = run(capsys, "bounds", str(m))
        assert code == 0
        assert "FAIL" not in out
        assert out.count(": ok") == 2

    def test_bounds_wrong_bracket_fails(self, capsys, monkeypatch):
        # beta's bracket lies above sqrt(m-3), so it fails gamma's window
        monkeypatch.setattr(bounds, "gamma_bracket", bounds.beta_bracket)
        code, out, _ = run(capsys, "bounds", str(10 ** 12))
        assert code == 2
        lines = out.splitlines()
        assert [l.startswith("gamma") for l in lines if "FAIL" in l] == [True]

    def test_bounds_past_the_float_range_exit_1(self):
        out = run_module("bounds", str(10 ** 400))
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""

    def test_bounds_prints_ends_that_print_apart(self, capsys):
        # the bracket is two adjacent floats that print apart at 10
        # decimals, and its midpoint rounds to the end above sqrt(m-1)
        code, out, _ = run(capsys, "bounds", "7442236220484276")
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("beta")] == [
            "beta(m)   in (86268396.4177164584, 86268396.4177164733]   "
            "sqrt(m-2) < beta <= sqrt(m-1): ok"]

    def test_pooled_certify_entry_point(self):
        # the pool is dropped at exit, with nothing on stderr
        out = run_module("certify", "nosal", "9", "--jobs", "2")
        assert out.returncode == 0
        assert out.stderr == ""
        assert "HOLDS" in out.stdout

    def test_module_entry_point(self):
        out = run_module("bounds", "9")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("m = 9\n")
        assert out.stdout.count(": ok") == 2

    def test_certify_exit_codes(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        code, out, _ = run(capsys, "certify", "zhai-shu", "9",
                           "--json", str(out_json))
        assert code == 0
        assert "HOLDS_WITH_EQUALITY" in out
        data = json.loads(out_json.read_text())
        assert data["verdict"] == "HOLDS_WITH_EQUALITY"
        assert data["maximizers"] == ["F]qAG"]

    def test_certify_main_7(self, capsys):
        code, out, _ = run(capsys, "certify", "main", "7")
        assert code == 0
        assert "HOLDS_WITH_EQUALITY" in out

    def test_certify_budget_exit_1(self, capsys):
        code, _, err = run(capsys, "certify", "zhai-shu", "14")
        assert code == 1
        assert "budget" in err

    def test_budget_error_names_the_certified_class(self, capsys):
        # the certifier grows the connected class but certifies the whole
        code, _, err = run(capsys, "certify", "thm15", "14")
        assert code == 1
        assert err == ("error: edge budget is m <= 13 for triangle-free "
                       "non-bipartite\n")

    def test_certify_far_past_the_budget_exit_1(self):
        # the budget is checked before SK_{2,100} (beyond the
        # canonical-form limit) is built
        out = run_module("certify", "zhai-shu", "201")
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: edge budget is m <= 13")
        assert out.stdout == ""

    @pytest.mark.parametrize("argv", [("certify", "nosal", "-2"),
                                      ("certify", "thm15", "0")])
    def test_certify_m_below_one_exit_1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "m >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("certify", "zhai-shu", "7", "--jobs", "0"),
        ("enumerate", "5", "--jobs", "-1"),
        ("explore", "booksize", "3", "--jobs", "0"),
        ("certify", "mantel", "6", "--jobs", "0"),
        ("certify", "erdos", "6", "--jobs", "0"),
        ("sweep", "--jobs", "0"),
        ("explore", "conj51", "9", "--jobs", "0"),
    ])
    def test_jobs_below_one_exit_1(self, capsys, argv):
        # rejected while parsing: nothing runs and nothing reaches stdout
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("argv", [
        ("bounds", "9", "--precision", "-1"),
        ("spectrum", "--construct", "C5", "--precision", "-2"),
    ])
    def test_precision_below_zero_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--precision" in err

    @pytest.mark.parametrize("value", ["0", "-3", "2"])
    def test_odd_girth_min_below_three_exit_1(self, capsys, value):
        code, out, err = run(capsys, "enumerate", "5", "--odd-girth-min",
                             value)
        assert code == 1
        assert out == ""
        assert "--odd-girth-min" in err

    def test_zero_precision_accepted(self, capsys):
        code, out, _ = run(capsys, "bounds", "9", "--precision", "0")
        assert code == 0
        assert "sqrt(m)   = 3\n" in out

    def test_file_system_errors_exit_1_without_traceback(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        sweep = run_module("sweep", "--json-dir", str(taken))
        report = run_module("certify", "zhai-shu", "7", "--json",
                            str(tmp_path / "missing" / "x.json"))
        assert sweep.stdout == ""  # the directory is made before the header
        for proc in (sweep, report):
            assert proc.returncode == 1, proc.args
            assert proc.stderr.startswith("error:"), proc.args
            assert "Traceback" not in proc.stderr, proc.args

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "not-a-theorem", "5"])
        assert exc.value.code == 1

    def test_enumerate_c5(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--triangle-free",
                           "--non-bipartite", "--connected")
        assert code == 0
        assert out.strip() == "DqK"

    def test_explore_booksize(self, capsys):
        code, out, _ = run(capsys, "explore", "booksize", "3")
        assert code == 0
        assert "min booksize" in out

    def test_explore_conj51(self, capsys):
        code, out, _ = run(capsys, "explore", "conj51", "9", "--k", "3")
        assert code == 0
        assert "CONJECTURE" in out

    def test_construct_roundtrip(self, capsys):
        from specbound.graphs import from_graph6
        code, out, _ = run(capsys, "construct", "SK", "2", "4")
        assert code == 0
        g = from_graph6(out.splitlines()[0])
        assert canonical_form(g) == canonical_form(sk(2, 4))


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "certify", "nosal", "5")
        _, out2, _ = run(capsys, "certify", "nosal", "5")
        strip = lambda s: [l for l in s.splitlines() if "wall time" not in l]
        assert strip(out1) == strip(out2)

    def test_jobs_only_change_wall_time(self, capsys, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "certify", "nosal", "6", "--json", str(j1))
        run(capsys, "certify", "nosal", "6", "--jobs", "2", "--json", str(j2))
        a = json.loads(j1.read_text())
        b = json.loads(j2.read_text())
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b


class TestSweep:
    # with these budgets the sweep runs 25 checks, all at m <= 9
    PLAN = ([(t, m) for m in range(3, 7) for t in ("nosal", "lnw")]
            + [(t, m) for m in range(5, 10) for t in ("thm15", "zhai-shu")]
            + [("main", m) for m in range(7, 10)]
            + [("mantel", 4), ("mantel", 5), ("erdos", 5), ("conj51-k3", 9)])

    @pytest.fixture(autouse=True)
    def small_budgets(self, monkeypatch):
        monkeypatch.setattr(certify, "edge_budget",
                            lambda filt: 9 if filt.non_bipartite else 6)
        monkeypatch.setattr(certify, "VERTEX_BUDGET", 5)

    @staticmethod
    def report(path):
        data = json.loads(path.read_text())
        data.pop("wall_time")
        return data

    def reports(self, json_dir):
        return {path.name: self.report(path) for path in json_dir.iterdir()}

    def test_rows_and_reports_match_certify(self, capsys, tmp_path):
        json_dir, one = tmp_path / "swept", tmp_path / "one.json"
        code, out, _ = run(capsys, "sweep", "--json-dir", str(json_dir))
        assert code == 0
        rows = out.splitlines()[1:-1]
        assert [(r.split()[0], int(r.split()[1])) for r in rows] == self.PLAN
        assert out.splitlines()[-1].endswith(" 0 violation(s)")
        swept = self.reports(json_dir)
        assert sorted(swept) == sorted(f"{t}-{m}.json" for t, m in self.PLAN)
        for theorem, m in self.PLAN:
            run(capsys, "certify", theorem.removesuffix("-k3"), str(m),
                "--k", "3", "--json", str(one))
            assert swept[f"{theorem}-{m}.json"] == self.report(one)

    def test_violation_exit_2(self, capsys, monkeypatch):
        real = certify.certify_main

        def violated(m, jobs=1):
            return dataclasses.replace(real(m, jobs), verdict="VIOLATED")

        monkeypatch.setattr(certify, "certify_main", violated)
        code, out, _ = run(capsys, "sweep")
        assert code == 2
        assert out.splitlines()[-1].endswith(" 3 violation(s)")

    def test_jobs_only_change_wall_time(self, capsys, tmp_path, fresh_levels,
                                        pool_starts):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        run(capsys, "sweep", "--json-dir", str(serial))
        # an empty level store, so that --jobs 2 enumerates through the pool
        fresh_levels()
        run(capsys, "sweep", "--jobs", "2", "--json-dir", str(pooled))
        # one pool for the process, started at the first level with at
        # least 4 parents per job and kept for every later one
        assert pool_starts() == 1
        assert self.reports(pooled) == self.reports(serial)
