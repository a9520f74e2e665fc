"""The command line interface: exit codes, output formats, stability."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeb import cli, rep
from heckeb.cli import main, parse_backend, parse_shape, UsageError
from heckeb.rep import SYMBOLIC, UnclassifiedEigenvalue, coideal_generators
from heckeb.schur import schur_algebra_dimension_commutant, schur_algebra_dimension_orbit


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_backend(self):
        assert parse_backend("symbolic").is_symbolic
        bk = parse_backend("Q=2,q=3")
        assert not bk.is_symbolic
        assert bk.spec.valueQ == 2
        with pytest.raises(UsageError):
            parse_backend("Q=2")
        with pytest.raises(UsageError):
            parse_backend("Q=1,q=3")

    def test_shape(self):
        assert parse_shape("2,1|1") == ((2, 1), (1,))
        assert parse_shape("2|-") == ((2,), ())
        assert parse_shape("-|1,1") == ((), (1, 1))
        with pytest.raises(UsageError):
            parse_shape("2,1")
        with pytest.raises(UsageError):
            parse_shape("1,2|1")


class TestCommands:
    def test_dims_text(self, capsys):
        code, out = run(capsys, ["dims", "--n", "3", "--d", "2"])
        assert code == 0
        assert "s_plus quotient: 3 (expected 3)" in out

    def test_dims_byte_stable(self, capsys):
        _, out1 = run(capsys, ["dims", "--n", "3", "--d", "2", "--output", "json"])
        _, out2 = run(capsys, ["dims", "--n", "3", "--d", "2", "--output", "json"])
        assert out1 == out2

    def test_dims_json_structure(self, capsys):
        code, out = run(capsys, ["dims", "--n", "3", "--d", "2", "--output", "json"])
        doc = json.loads(out)
        assert set(doc) == {"tool", "version", "command", "params", "results", "pass"}
        assert doc["tool"] == "heckeb"
        assert doc["pass"] is True
        assert doc["results"]["dims"]["wedge_minus_kernel"] == 0

    @pytest.mark.parametrize(
        "argv,check",
        [
            (["--suite", "cylinder", "--n", "2", "--d", "2", "--e", "1"], "cylinder_identity"),
            (["--suite", "jucys-murphy", "--n", "2", "--d", "3"], "jucys_murphy_commute"),
            (["--suite", "permutation", "--n", "3", "--d", "2"], "permutation_intertwiners"),
            (["--suite", "spectra", "--n", "2", "--d", "3", "--backend", "Q=2,q=3"], "spectra"),
            (["--suite", "rk-equations", "--n", "2", "--d", "1", "--e", "1"], "rk_equations"),
            (["--suite", "double-centralizer", "--n", "2", "--d", "2"], "double_centralizer"),
            # V_1 has no coideal generator
            (["--suite", "double-centralizer", "--n", "1", "--d", "1"], "double_centralizer"),
            (["--suite", "all", "--n", "1", "--d", "2", "--e", "2"], "overall"),
            (["--suite", "all", "--n", "1", "--d", "2", "--e", "2", "--backend", "Q=2,q=3"], "overall"),
            (["--suite", "e-hecke", "--n", "2", "--d", "2", "--e", "1"], "e_hecke_consistency"),
            # the suite ignores e, so the point is checked to degree d only
            (
                ["--suite", "hecke-relations", "--n", "2", "--d", "2", "--e", "7",
                 "--backend", "Q=2,q=1/8192"],
                "rho_relations",
            ),
        ],
        ids=[
            "cylinder",
            "jucys-murphy",
            "permutation",
            "spectra",
            "rk-equations",
            "double-centralizer",
            "double-centralizer-n1",
            "all-n1",
            "all-n1-specialized",
            "e-hecke",
            "unused-e",
        ],
    )
    def test_verify_suite(self, capsys, argv, check):
        code, out = run(capsys, ["verify", *argv])
        assert code == 0
        assert "%s: PASS" % check in out

    def test_decompose_at_the_rank_cap(self, capsys):
        code, out = run(capsys, ["decompose", "--n", "2", "--d", "4", "--output", "json"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_decompose_tsv(self, capsys):
        code, out = run(capsys, ["decompose", "--n", "3", "--d", "2", "--output", "tsv"])
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert ["1|1", "2", "2", "2"] in rows

    def test_schur_command(self, capsys):
        code, out = run(capsys, ["schur", "--shape", "1|1", "--n", "3"])
        assert code == 0
        assert "dim 2 (formula 2)" in out

    @pytest.mark.parametrize("shape", ["-|2", "-|1,1"])
    def test_shape_with_empty_left_side(self, capsys, shape):
        # a value that starts with '-' is read as the shape, not as an option
        code, out = run(capsys, ["schur", "--shape", shape, "--n", "3"])
        assert code == 0
        assert out.startswith("schur functor %s on V_3" % shape)
        assert run(capsys, ["schur", "--shape=" + shape, "--n", "3"]) == (code, out)

    def test_eigen_command(self, capsys):
        code, out = run(
            capsys, ["eigen", "--n", "2", "--d", "2", "--backend", "Q=2,q=3"]
        )
        assert code == 0
        assert "K_1 eigenvalues: -2, 1/2" in out

    def test_centralizer_command(self, capsys):
        code, out = run(capsys, ["centralizer", "--n", "3", "--d", "2"])
        assert code == 0
        assert "15" in out

    @pytest.mark.parametrize(
        "point",
        ["Q=2,q=3", "Q=%d,q=3" % (2**61 - 1), "Q=%d,q=3" % (2**1024 - 1)],
        ids=["Q=2", "Q=2^61-1", "Q=2^1024-1"],
    )
    @pytest.mark.parametrize("n,d,dim", [(3, 3, 35), (5, 2, 91)])
    def test_centralizer_command_at_a_point(self, capsys, n, d, dim, point):
        """At a point the commutant method is an integer rank; it must agree
        with the orbit method up to the largest height the budget takes."""
        code, out = run(capsys, ["centralizer", "--n", str(n), "--d", str(d), "--backend", point])
        assert code == 0
        assert out.splitlines() == [
            "Schur algebra dim (orbit method): %d" % dim,
            "Schur algebra dim (commutant method): %d" % dim,
        ]

    def test_centralizer_at_high_degree(self, capsys):
        # n^d = 1 at n = 1: neither method recurses over d, and the command
        # takes d up to the Hecke rank cap
        assert schur_algebra_dimension_orbit(1, 1200, SYMBOLIC) == 1
        assert schur_algebra_dimension_commutant(1, 1200, SYMBOLIC) == 1
        code, out = run(capsys, ["centralizer", "--n", "1", "--d", "16"])
        assert code == 0
        assert "Schur algebra dim (orbit method): 1" in out

    def test_double_centralizer_builds_the_coideal_once(self, capsys):
        """The row checks the double centralizer and the commutation, and
        both read one cached build of the coideal generators."""
        coideal_generators.cache_clear()
        argv = ["verify", "--suite", "double-centralizer", "--n", "3", "--d", "2",
                "--backend", "Q=2,q=3"]
        assert run(capsys, argv)[0] == 0
        built = coideal_generators.cache_info()
        assert (built.misses, built.hits) == (1, 1)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dims.json"
        code, _ = run(
            capsys,
            ["dims", "--n", "2", "--d", "2", "--output", "json", "--out", str(target)],
        )
        assert code == 0
        assert json.loads(target.read_text())["pass"] is True


class TestErrors:
    @pytest.mark.parametrize("backend", ["Q=0,q=3", "Q=2,q=3,banana", "Q=2,Q=5,q=3"])
    def test_bad_backend_exits_2(self, capsys, backend):
        assert main(["dims", "--n", "3", "--d", "2", "--backend", backend]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("where", ["missing dir", "a dir"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing dir" else tmp_path
        assert main(["dims", "--n", "2", "--d", "2", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write %s" % target)

    def test_symbolic_eigen_exits_2(self, capsys):
        assert main(["eigen", "--n", "2", "--d", "2"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dims", "--n", "7", "--d", "3"], "exceeds the symbolic budget"),
            (
                ["verify", "--suite", "rk-equations", "--n", "3", "--d", "7", "--e", "1"],
                "exceeds the symbolic budget",
            ),
            (
                ["verify", "--suite", "rk-equations", "--n", "3", "--d", "3", "--e", "3"],
                "exceeds the symbolic budget",
            ),
            # V_{n+2}^{(x) d} = V_101^{(x) 4}
            (
                ["verify", "--suite", "permutation", "--n", "99", "--d", "4"],
                "exceeds the symbolic budget",
            ),
            # no tensor space bounds these: the Hecke rank d, and d + e
            (
                ["verify", "--suite", "jucys-murphy", "--n", "1", "--d", "30"],
                "Hecke rank 30 exceeds the Hecke algebra budget",
            ),
            (
                ["verify", "--suite", "cylinder", "--n", "1", "--d", "20", "--e", "20"],
                "Hecke rank 40 exceeds the Hecke algebra budget",
            ),
            # nor these at n = 1: Hecke elements of rank d, max(d, 2e) and d e
            (
                ["eigen", "--n", "1", "--d", "30", "--backend", "Q=2,q=3"],
                "Hecke rank 30 exceeds the Hecke algebra budget",
            ),
            (
                ["verify", "--suite", "rk-equations", "--n", "1", "--d", "40"],
                "Hecke rank 40 exceeds the Hecke algebra budget",
            ),
            (
                ["verify", "--suite", "rk-equations", "--n", "1", "--d", "1", "--e", "600"],
                "Hecke rank 1200 exceeds the Hecke algebra budget",
            ),
            (
                ["verify", "--suite", "e-hecke", "--n", "1", "--d", "2", "--e", "400"],
                "Hecke rank 800 exceeds the Hecke algebra budget",
            ),
            (
                ["verify", "--suite", "hecke-relations", "--n", "1", "--d", "5000"],
                "Hecke rank 5000 exceeds the Hecke algebra budget",
            ),
            # without the rank cap these took 9.3 s and 6.7 s on a 2-vCPU Xeon,
            # and centralizer at d 20,000 ran out of memory
            (
                ["dims", "--n", "1", "--d", "20000"],
                "Hecke rank 20000 exceeds the Hecke algebra budget 16",
            ),
            (
                ["centralizer", "--n", "1", "--d", "5000"],
                "Hecke rank 5000 exceeds the Hecke algebra budget 16",
            ),
            # within the tensor budget but far over 30 s: spectra at N d =
            # 2,048, and the double centralizer at rank 5 or width 6,561
            (
                ["verify", "--suite", "all", "--n", "2", "--d", "8", "--backend", "Q=2,q=3"],
                "width n^d * d 2048 exceeds the spectra budget",
            ),
            (
                ["verify", "--suite", "double-centralizer", "--n", "2", "--d", "5",
                 "--backend", "Q=2,q=3"],
                "Hecke rank 5 exceeds the double-centralizer budget",
            ),
            (
                ["verify", "--suite", "double-centralizer", "--n", "3", "--d", "4",
                 "--backend", "Q=2,q=3"],
                "Sylvester width n^2d 6561 exceeds the double-centralizer budget",
            ),
            # at n = 1 every system is 1 x 1: the Hecke algebra cap
            (
                ["verify", "--suite", "double-centralizer", "--n", "1", "--d", "17"],
                "Hecke rank 17 exceeds the double-centralizer budget 16",
            ),
            # a point of huge height, refused before 10^e is built: both ran
            # over 60 s
            (
                ["dims", "--n", "2", "--d", "2", "--backend", "Q=1e1000000,q=3"],
                "decimal exponent of Q 1000000 exceeds the point height budget",
            ),
            (
                ["verify", "--suite", "double-centralizer", "--n", "3", "--d", "3",
                 "--backend", "Q=1e100000,q=3"],
                "decimal exponent of Q 100000 exceeds the point height budget",
            ),
            # and by the bit length of the value itself
            (
                ["dims", "--n", "2", "--d", "2", "--backend", "Q=2,q=1/%d" % 2**1024],
                "bit length of q 1025 exceeds the point height budget 1024",
            ),
            # spectra grows with the height of the point (Q of 499 bits):
            # without a height term these ran over 60 s and 19.6 s
            (
                ["verify", "--suite", "spectra", "--n", "2", "--d", "6", "--backend", "Q=1e150,q=3"],
                "height min(n, 2d) * n^d * d^3 * h 14128128 exceeds the spectra budget",
            ),
            (
                ["verify", "--suite", "spectra", "--n", "3", "--d", "4", "--backend", "Q=1e150,q=3"],
                "height min(n, 2d) * n^d * d^3 * h 7884864 exceeds the spectra budget",
            ),
            # Yang-Baxter on V^{(x) 12}: 12 s at this point, 25 s at 2^1024 - 1
            (
                ["verify", "--suite", "rk-equations", "--n", "2", "--d", "1", "--e", "4",
                 "--backend", "Q=2,q=3"],
                "Yang-Baxter cable width e 4 exceeds the rk-equations budget 3",
            ),
        ],
        ids=[
            "dims",
            "rk-tensor",
            "rk-blocks",
            "permutation",
            "jucys-murphy",
            "cylinder",
            "eigen-n1",
            "rk-rank-d",
            "rk-rank-e",
            "e-hecke-n1",
            "hecke-relations-n1",
            "dims-n1",
            "centralizer-n1",
            "all-spectra-width",
            "double-centralizer-rank",
            "double-centralizer-width",
            "double-centralizer-n1",
            "point-height-dims",
            "point-height-double-centralizer",
            "point-height-bits",
            "spectra-height-n2-d6",
            "spectra-height-n3-d4",
            "rk-yang-baxter-cable",
        ],
    )
    def test_budget_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point", ["Q=2,q=3", "Q=3,q=2", "Q=5,q=3", "Q=3,q=7", "Q=%d,q=3" % (2**1024 - 1)]
    )
    def test_spectra_budget_holds_the_suite_at_n3_d3(self, point):
        """The height term still accepts verify all at n 3, d 3 at the bench
        points and at the largest height the point budget takes."""
        argv = ["verify", "--suite", "all", "--n", "3", "--d", "3", "--backend", point]
        args = cli.build_parser().parse_args(argv)
        for cap in cli.spectra_caps(args, cli.parse_backend(point)):
            cli.check_cap(*cap)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "3", "--d", "2", "--e", "2"],
            ["--n", "2", "--d", "1", "--e", "3", "--backend", "Q=2,q=3"],
            ["--n", "4", "--d", "1", "--e", "2", "--backend", "Q=2,q=3"],
            ["--n", "1", "--d", "1", "--e", "8", "--backend", "Q=2,q=3"],
        ],
        ids=["rk-symbolic", "n2-e3", "n4-e2", "n1-e8"],
    )
    def test_yang_baxter_budget_holds_the_fast_cables(self, argv):
        """The cable cap still accepts the rk-symbolic workload and every
        cable that took at most 2.4 s."""
        args = cli.build_parser().parse_args(["verify", "--suite", "rk-equations", *argv])
        row = cli.SUITES["rk-equations"]
        for cap in row.caps(args, cli.parse_backend(args.backend)):
            cli.check_cap(*cap)

    @pytest.mark.parametrize(
        "argv",
        [
            # n^d = 1 bounds nothing at n = 1
            ["decompose", "--n", "1", "--d", "12"],
            ["decompose", "--n", "2", "--d", "5", "--backend", "Q=2,q=3"],
            ["schur", "--shape", "3,2|1", "--n", "1"],
        ],
        ids=["decompose-n1", "decompose-n2", "schur"],
    )
    def test_ledger_rank_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert "exceeds the ledger budget 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "check",
        [
            "verify_rho_relations",
            "jm_spectra",
            "verify_rk_equations",
            "verify_permutation_intertwiners",
            "verify_double_centralizer",
            "verify_e_hecke",
        ],
        ids=[
            "hecke-relations",
            "spectra",
            "rk-equations",
            "permutation",
            "double-centralizer",
            "e-hecke",
        ],
    )
    def test_budgets_checked_before_any_suite(self, capsys, monkeypatch, check):
        def ran(*args, **kwargs):
            raise AssertionError("%s ran before every budget was checked" % check)

        monkeypatch.setattr(cli, check, ran)
        # every budget holds except that of e-hecke (3^6 > 400), which is
        # checked last
        argv = ["verify", "--suite", "all", "--n", "3", "--d", "3", "--e", "2"]
        assert main(argv + ["--backend", "Q=2,q=3"]) == 2
        assert "exceeds the specialized budget" in capsys.readouterr().err

    def test_budget_checked_before_the_point(self, capsys):
        # over budget, and the point is invalid at degree d*e = 200000: the
        # budget is reported, at once
        argv = ["verify", "--suite", "e-hecke", "--n", "2", "--d", "2", "--e", "100000"]
        assert main(argv + ["--backend", "Q=2,q=1/8192"]) == 2
        assert "exceeds the specialized budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "--n", "1", "--d", "7"],
            ["verify", "--suite", "e-hecke", "--n", "1", "--d", "1", "--e", "7"],
        ],
        ids=["eigen", "e-hecke"],
    )
    def test_point_checked_to_run_degree(self, capsys, argv):
        # valid to degree 6, but Q^-13 q^-1 = 1 lies in the degree-7 box
        assert main(argv + ["--backend", "Q=2,q=1/8192"]) == 2
        assert "invalid specialization" in capsys.readouterr().err

    def test_rk_negative_control_fails_the_run_when_it_holds(self, capsys, monkeypatch):
        """A negative control that held would fail the run, although every
        R/K equation holds."""
        honest = cli.verify_rk_equations

        def held(*args):
            res = honest(*args)
            assert res["all"] and not res["negative_control"]
            res["negative_control"] = True
            return res

        monkeypatch.setattr(cli, "verify_rk_equations", held)
        code, out = run(capsys, ["verify", "--suite", "rk-equations", "--n", "2", "--d", "1", "--e", "1"])
        assert code == 1
        assert "rk_negative_control_fails: FAIL" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "rk-equations", "--n", "3", "--d", "2", "--e", "2"],
            ["verify", "--suite", "all", "--n", "2", "--d", "2", "--e", "1"],
        ],
        ids=["rk-equations", "all"],
    )
    def test_rk_row_takes_one_kronecker_point(self, capsys, monkeypatch, argv):
        """The rk row decides its equations and its negative control in one
        pass, at one Kronecker point."""
        calls = []
        point = rep._kronecker_point

        def counted(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(rep, "_kronecker_point", counted)
        code, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 1

    def test_unclassified_eigenvalue_is_a_fail(self, capsys, monkeypatch):
        def unclassified(*args):
            raise UnclassifiedEigenvalue("a factor outside the candidate set")

        monkeypatch.setattr(cli, "jm_spectra", unclassified)
        argv = ["eigen", "--n", "2", "--d", "2", "--backend", "Q=2,q=3", "--output", "json"]
        code, out = run(capsys, argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert "outside the candidate set" in doc["results"]["unclassified"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--n", "0", "--d", "2"],
            ["dims", "--n", "2", "--d", "0"],
            ["dims", "--n", "2", "--d", "-1"],
            ["verify", "--suite", "rk-equations", "--n", "2", "--d", "2", "--e", "0"],
            ["verify", "--suite", "cylinder", "--n", "2", "--d", "2", "--e", "-3"],
        ],
    )
    def test_nonpositive_size_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["|", "-|-"])
    def test_shape_with_no_boxes_exits_2(self, capsys, shape):
        assert main(["schur", "--shape=" + shape, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a shape needs at least one box\n"

    def test_even_permutation_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "permutation", "--n", "4", "--d", "2"]) == 2


# sizes and backends at and past the edges: nonpositive, not a number, and
# far over every budget; no point, a missing q, a zero and a zero
# denominator, a small and a 65-bit point, and that point written 2^64+1,
# which is no number
SIZES = ["0", "-1", "1", "2", "3", "x", str(10**22)]
BACKENDS = [
    "symbolic", "Q=0", "Q=1/0", "Q=0,q=3", "Q=1/0,q=3",
    "Q=2,q=3", "Q=%d,q=3" % (2**64 + 1), "Q=2^64+1,q=3",
]


class TestContract:
    @given(
        command=st.sampled_from([["eigen"], ["verify", "--suite", "spectra"]]),
        n=st.sampled_from(SIZES),
        d=st.sampled_from(SIZES),
        backend=st.sampled_from(BACKENDS),
        output=st.sampled_from(["text", "json"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_spectra_rows(self, command, n, d, backend, output):
        """The spectra rows exit 0, 1 or 2 with no traceback, and on exit 2
        print nothing on stdout and one line on stderr."""
        out, err = io.StringIO(), io.StringIO()
        argv = [*command, "--n", n, "--d", d, "--backend", backend, "--output", output]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


# stdout of each argv in every output format, as tests/golden/<name>.<format>
GOLDEN = {
    "verify-all-n3-d2-e1": ["verify", "--suite", "all", "--n", "3", "--d", "2", "--e", "1"],
    "verify-all-n3-d3-e1-point": [
        "verify", "--suite", "all", "--n", "3", "--d", "3", "--e", "1", "--backend", "Q=2,q=3"
    ],
    "dims-n5-d2": ["dims", "--n", "5", "--d", "2"],
    "decompose-n5-d2": ["decompose", "--n", "5", "--d", "2"],
    "decompose-n7-d3-point": ["decompose", "--n", "7", "--d", "3", "--backend", "Q=5,q=3"],
    "schur-21-1-n3-point": ["schur", "--shape", "2,1|1", "--n", "3", "--backend", "Q=2,q=3"],
    "schur-empty-3-n2": ["schur", "--shape=-|3", "--n", "2"],
    "eigen-n3-d2-point": ["eigen", "--n", "3", "--d", "2", "--backend", "Q=2,q=3"],
    # c_K with six eigenvalues on V_3^{(x) 3}, at two points
    "eigen-n3-d3-point": ["eigen", "--n", "3", "--d", "3", "--backend", "Q=2,q=3"],
    "eigen-n3-d3-Q3-q7": ["eigen", "--n", "3", "--d", "3", "--backend", "Q=3,q=7"],
    "centralizer-n5-d2": ["centralizer", "--n", "5", "--d", "2"],
    # no commutant line: n^d = 49 is over the commutant cap
    "centralizer-n7-d2-point": ["centralizer", "--n", "7", "--d", "2", "--backend", "Q=2,q=3"],
    "verify-rk-n3-d2-e2": ["verify", "--suite", "rk-equations", "--n", "3", "--d", "2", "--e", "2"],
    "verify-rk-n2-d1-e3": ["verify", "--suite", "rk-equations", "--n", "2", "--d", "1", "--e", "3"],
}


class TestGolden:
    """Each command prints its recorded stdout byte for byte: the text lines,
    the tsv rows and the JSON document with its params."""

    @pytest.mark.parametrize("output", ["text", "tsv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_matches_golden(self, capsys, name, output):
        code, out = run(capsys, [*GOLDEN[name], "--output", output])
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden" / ("%s.%s" % (name, output))
        assert out == golden.read_text()


WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text()
)


class TestBenchWorkloads:
    """Each benchmark workload still prints the results its reference digest
    names, symbolic or at every point of the list, digested as
    perfbench/run.py does."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS["workloads"]))
    def test_results_digest(self, capsys, name):
        workload = WORKLOADS["workloads"][name]
        points = ["symbolic"] if workload["backend"] == "symbolic" else WORKLOADS["points"]
        for backend in points:
            code, out = run(capsys, [*workload["argv"], "--backend", backend, "--output", "json"])
            assert code == 0, backend
            blob = json.dumps(json.loads(out)["results"], sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(blob.encode()).hexdigest() == workload["results_sha256"], backend
