import json
import os
import subprocess
import sys

import pytest

import wassrisk
from wassrisk import Exponential, cli, expectile
from wassrisk.cli import main, parse_grid, parse_prior_spec


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# runs in a fresh process; prints the scipy modules loaded after each step
IMPORT_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def measure(*argv):
    with open(sys.argv[2], "w") as sys.stdout:
        code = wassrisk.cli.main(["measure", *argv])
    sys.stdout = sys.__stdout__
    with open(sys.argv[2]) as handle:
        return [code, handle.read().strip(), scipy_modules()]
import wassrisk, wassrisk.cli
steps = {"import": scipy_modules()}
from wassrisk import AsymQuadratic, BallPenalty, CostExponent, Empirical, Exponential, LinearPenalty, Normal, StudentT
from wassrisk import robust_functional, robust_oce
robust_functional(Empirical.uniform([1.0, 2.0, 7.0]), AsymQuadratic(0.3), CostExponent(2.0), LinearPenalty(2.0), 2.5)
steps["empirical"] = scipy_modules()
wassrisk.robust_expectile_ball(Exponential(1.5), 0.3, 0.4)
steps["exponential"] = scipy_modules()
for name, d in (("normal", Normal(0.0, 1.0)), ("student_t", StudentT(5.0, 0.2, 1.3))):
    wassrisk.expectile(d, 0.3)
    wassrisk.robust_expectile_ball(d, 0.3, 0.4)
    robust_oce(d, AsymQuadratic(0.7), CostExponent(2.0), BallPenalty(0.4))
    wassrisk.var(d, 0.95)
    wassrisk.distributions.cdf(d, 0.4)
    steps[name] = scipy_modules()
with open(sys.argv[1], "w") as handle:
    handle.write("1\\n2\\n3\\n")
steps["measure"] = measure("robust-expectile", "--penalty", "linear", "--delta", "1", "--alpha", "0.75",
                           "--samples", sys.argv[1])
print(json.dumps(steps))
"""

# a fresh process that runs one CLI measure and prints the scipy modules it
# loaded
MEASURE_PROBE = """
import json, sys
import wassrisk.cli
with open(sys.argv[1], "w") as sys.stdout:
    code = wassrisk.cli.main(sys.argv[2:])
sys.stdout = sys.__stdout__
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _probe(script, *args):
    src = os.path.dirname(os.path.dirname(wassrisk.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_no_scipy_module_loads(tmp_path):
    # scipy is slow to import and the package needs none of it: no scipy
    # module loads on import, nor after solves on every prior family, where
    # the normal and Student-t functions are the package's own
    steps = _probe(IMPORT_PROBE, str(tmp_path / "three.csv"), str(tmp_path / "out.txt"))
    assert steps == {
        "import": [],
        "empirical": [],
        "exponential": [],
        "normal": [],
        "student_t": [],
        "measure": [0, "2.727272727273", []],
    }


@pytest.mark.parametrize("prior", ["normal:0,1", "student_t:5,0,1"])
def test_measure_on_a_parametric_prior_loads_no_scipy(tmp_path, prior):
    out = tmp_path / "out.txt"
    code, modules = _probe(MEASURE_PROBE, str(out), "measure", "expectile", "--alpha", "0.3", "--prior", prior)
    assert (code, modules) == (0, [])
    assert float(out.read_text()) < 0.0


class TestPriorSpecs:
    def test_mini_grammar(self):
        from wassrisk import Normal, StudentT

        assert parse_prior_spec("normal:0,1") == Normal(0.0, 1.0)
        assert parse_prior_spec("exponential:2") == Exponential(2.0)
        assert parse_prior_spec("t:5") == StudentT(5.0)
        assert parse_prior_spec("student_t:5,1,2") == StudentT(5.0, 1.0, 2.0)

    def test_grid_forms(self):
        assert parse_grid("0.1,0.3,0.7", "--alpha") == [0.1, 0.3, 0.7]
        assert parse_grid("1:3:0.5", "--delta") == [1.0, 1.5, 2.0, 2.5, 3.0]


class TestMeasure:
    def test_var_normal_median(self, capsys):
        code, out, _ = run(capsys, "measure", "var", "--prior", "normal:0,1", "--alpha", "0.5")
        assert code == 0
        assert out.strip() == "0.000000000000"

    def test_robust_expectile_csv_samples(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("1\n2\n3\n")
        code, out, _ = run(
            capsys,
            "measure", "robust-expectile",
            "--penalty", "linear", "--delta", "1", "--alpha", "0.75",
            "--samples", str(path),
        )
        assert code == 0
        assert out.strip() == "2.727272727273"

    def test_ball_zero_delegates_to_expectile(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "robust-expectile",
            "--penalty", "ball", "--delta", "0", "--alpha", "0.7",
            "--prior", "exponential:1",
        )
        assert code == 0
        assert out.strip() == f"{expectile(Exponential(1), 0.7):.12f}"

    def test_oce_and_quantile(self, capsys, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("1\n2\n3\n4\n")
        code, out, _ = run(
            capsys,
            "measure", "quantile", "--loss", "pinball",
            "--penalty", "linear", "--delta", "5", "--alpha", "0.5",
            "--samples", str(path),
        )
        assert code == 0
        lo, hi = (float(tok) for tok in out.split())
        assert lo == pytest.approx(2.0, abs=1e-5)
        assert hi == pytest.approx(3.0, abs=1e-5)
        code, out, _ = run(
            capsys,
            "measure", "oce", "--loss", "asym-quadratic",
            "--penalty", "linear", "--delta", "2", "--alpha", "0.6",
            "--prior", "normal:0,1",
        )
        assert code == 0
        float(out.strip())

    def test_prior_file(self, capsys, tmp_path):
        path = tmp_path / "prior.json"
        path.write_text('{"family": "normal", "mean": 1.5, "stddev": 1.0}')
        code, out, _ = run(capsys, "measure", "var", "--prior-file", str(path), "--alpha", "0.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.5, abs=1e-9)

    def test_exit_codes(self, capsys):
        # 1: malformed input with the offending field named
        code, _, err = run(capsys, "measure", "var", "--prior", "normal:0,oops", "--alpha", "0.5")
        assert code == 1 and "--prior" in err
        code, _, err = run(capsys, "measure", "var", "--prior", "normal:0,1")
        assert code == 1 and "--alpha" in err
        # 2: infeasible dual problem
        code, _, err = run(
            capsys,
            "measure", "oce", "--loss", "pinball", "--penalty", "linear",
            "--delta", "0.5", "--alpha", "0.9", "--prior", "normal:0,1",
        )
        assert code == 2
        # 3: domain error (slope below the level)
        code, _, err = run(
            capsys,
            "measure", "robust-expectile", "--penalty", "linear",
            "--delta", "0.6", "--alpha", "0.75", "--prior", "normal:0,1",
        )
        assert code == 3

    def test_oversized_csv_cell_is_a_usage_error(self, capsys, tmp_path):
        # a non-numeric cell past csv's field limit (131072 characters) used
        # to escape as a _csv.Error traceback
        path = tmp_path / "big.csv"
        path.write_text("1.0\n" + "x" * 200_001 + "\n2.0\n")
        code, out, err = run(capsys, "measure", "var", "--alpha", "0.5", "--samples", str(path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--samples" in err and "field limit" in err

    def test_cost_exponent_is_the_losses_own(self, capsys, tmp_path):
        # measure takes the cost exponent from the loss, so --cost-p is a
        # usage error: asym-quadratic under p = 1 can only be a domain error
        path = tmp_path / "four.csv"
        path.write_text("1\n2\n3\n7.5\n")
        code, _, err = run(
            capsys,
            "measure", "oce", "--loss", "asym-quadratic", "--cost-p", "1",
            "--penalty", "ball", "--delta", "0.5", "--alpha", "0.3",
            "--samples", str(path),
        )
        assert code == 1 and "--cost-p" in err

    def test_restrict_support(self, capsys, tmp_path):
        # a pinball OCE under a linear penalty of slope 2 decreases without
        # bound in m off an empirical support; confined to the support, its
        # minimum is the library's restricted solve
        from wassrisk import CostExponent, Empirical, LinearPenalty, Pinball, SearchOptions, robust_oce

        path = tmp_path / "four.csv"
        path.write_text("1\n2\n3\n7.5\n")
        args = (
            "measure", "oce", "--loss", "pinball", "--penalty", "linear",
            "--delta", "2", "--alpha", "0.3", "--samples", str(path),
        )
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert "objective keeps decreasing toward -inf on the left" in err
        code, out, _ = run(capsys, *args, "--restrict-support")
        assert code == 0
        assert out.strip() == "1.712500000000"
        d = Empirical.uniform([1.0, 2.0, 3.0, 7.5])
        restricted = robust_oce(
            d, Pinball(0.3), CostExponent(1.0), LinearPenalty(2.0), SearchOptions(restrict_to_support=True)
        )
        assert out.strip() == f"{restricted.value:.12f}"


class TestSweep:
    def test_csv_shape_and_trends(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "linear",
            "--alpha", "0.1,0.9", "--delta", "1:5:1", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "alpha,delta,robust,expectile,var,mean,iters,converged"
        assert len(lines) == 1 + 2 * 5
        rows = [line.split(",") for line in lines[1:]]
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(float(row[0]), []).append(float(row[2]))
            assert row[7] == "true"
        assert all(b <= a + 1e-9 for a, b in zip(by_alpha[0.9][:-1], by_alpha[0.9][1:]))
        assert all(b >= a - 1e-9 for a, b in zip(by_alpha[0.1][:-1], by_alpha[0.1][1:]))

    def test_violating_pairs_skipped(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "linear",
            "--alpha", "0.5,0.9", "--delta", "0.7,2", "--out", str(out_csv),
        )
        assert code == 0
        assert "skipping" in err
        lines = out_csv.read_text().strip().splitlines()
        # (0.5, 0.7), (0.5, 2), (0.9, 2) survive; (0.9, 0.7) is filtered
        assert len(lines) == 4

    def test_empty_grid_exits_two(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "linear",
            "--alpha", "0.5", "--delta", "0.1,0.2", "--out", str(out_csv),
        )
        assert code == 2
        assert out_csv.read_text().strip() == "alpha,delta,robust,expectile,var,mean,iters,converged"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--prior", "exponential:1", "--penalty", "ball",
            "--alpha", "0.3,0.7", "--delta", "0:2:0.5", "--seed", "7",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_ball_sweep_zero_radius_equals_expectile_column(self, capsys, tmp_path):
        out_csv = tmp_path / "ball.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "exponential:1", "--penalty", "ball",
            "--alpha", "0.3,0.7", "--delta", "0:2:0.5", "--out", str(out_csv),
        )
        assert code == 0
        for line in out_csv.read_text().strip().splitlines()[1:]:
            alpha, delta, robust, exp_col, *_ = line.split(",")
            if float(delta) == 0.0:
                assert abs(float(robust) - float(exp_col)) <= 1e-8

    def test_parametric_sweep_under_ten_seconds(self, capsys, tmp_path):
        import time

        start = time.perf_counter()
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "student_t:5", "--penalty", "ball",
            "--alpha", "0.1,0.3,0.7,0.9", "--delta", "0:9:0.5",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert time.perf_counter() - start < 10.0

    def test_svg_written(self, capsys, tmp_path):
        out_csv, out_svg = tmp_path / "s.csv", tmp_path / "s.svg"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "linear",
            "--alpha", "0.7,0.9", "--delta", "1:3:0.5",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        text = out_svg.read_text()
        assert text.startswith("<svg") and "polyline" in text and "delta" in text

    def test_per_row_failures_recorded(self, capsys, tmp_path):
        # heavy-tailed prior without second moments: every row fails but is
        # still recorded with converged=false
        out_csv = tmp_path / "fail.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "student_t:1.5", "--penalty", "ball",
            "--alpha", "0.3,0.7", "--delta", "0,0.5", "--out", str(out_csv),
        )
        assert code == 2
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith(",false")
            assert "nan" in line

    def test_failed_ball_certificate_fails_its_row(self, capsys, tmp_path, monkeypatch):
        # a ball solve whose certificate fails raises NoConvergence, which
        # the sweep records as a failed row; radius 0 is the classical
        # expectile, which an empirical prior reads from its atom tables
        # with no root at all
        from wassrisk import robust_core

        root = robust_core.increasing_root
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        samples, out_csv = tmp_path / "atoms.csv", tmp_path / "ball.csv"
        samples.write_text("-1.5\n-0.25\n0.0\n0.5\n2.0\n")
        code, _, _ = run(
            capsys,
            "sweep", "--samples", str(samples), "--penalty", "ball",
            "--alpha", "0.75", "--delta", "0,0.5", "--out", str(out_csv),
        )
        assert code == 0
        zero, half = out_csv.read_text().strip().splitlines()[1:]
        assert zero.endswith(",true")
        assert half.endswith(",false") and "nan" in half

    def test_failed_expectile_certificate_fails_its_row(self, capsys, tmp_path, monkeypatch):
        # on a normal prior the classical expectile is a root too: one that
        # fails its certificate fails every row that needs it (radius 0
        # itself, and the expectile column of the others) instead of
        # printing a number off the root
        from wassrisk import robust_core

        root = robust_core.increasing_root
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        out_csv = tmp_path / "ball.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "ball",
            "--alpha", "0.75", "--delta", "0,0.5", "--out", str(out_csv),
        )
        assert code == 2
        for row in out_csv.read_text().strip().splitlines()[1:]:
            assert row.endswith(",false") and "nan" in row

    def test_decreasing_grid_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", "linear",
            "--alpha", "0.9,0.1", "--delta", "1,2", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1 and "strictly increasing" in err

    @pytest.mark.parametrize(
        "penalty, alpha, delta",
        [
            ("linear", "0.8", "1,nan"),
            ("linear", "0.8", "1,inf"),
            ("ball", "0.8", "0,inf"),
            ("ball", "0.5,nan", "0.5"),
            ("ball", "0.5,1.2", "0.5"),
            ("ball", "0.8", "-0.5,0.5"),
        ],
    )
    def test_bad_grid_rejected_before_any_row(self, capsys, tmp_path, monkeypatch, penalty, alpha, delta):
        def refuse(*args):
            raise AssertionError("a bad grid must not solve a row")

        monkeypatch.setattr(cli, "_sweep_point", refuse)
        out_csv = tmp_path / "x.csv"
        code, _, err = run(
            capsys,
            "sweep", "--prior", "normal:0,1", "--penalty", penalty,
            "--alpha", alpha, f"--delta={delta}", "--out", str(out_csv),
        )
        assert code == 1 and err.startswith("error:") and ("--alpha" in err or "--delta" in err)
        assert not out_csv.exists()


class TestVerify:
    def test_reductions_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "reductions")
        assert code == 0
        assert "robust-var-degenerates-to-var: PASS" in out
        assert "ball-zero-radius-equals-expectile: PASS" in out

    def test_duality_suite_includes_band_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "duality")
        assert code == 0
        assert "density-band-oracle-agreement: PASS" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 1
        assert "unknown suite" in err

    def test_seed_determinism(self, capsys):
        code1, out1, _ = run(capsys, "verify", "reductions", "--seed", "11")
        code2, out2, _ = run(capsys, "verify", "reductions", "--seed", "11")
        assert (code1, out1) == (code2, out2)


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # each call must print and write what it does on a freshly built parser,
    # after earlier calls set other flags, failed, or ran another command
    samples, out = tmp_path / "atoms.csv", tmp_path / "sweep.csv"
    samples.write_text("value,weight\n-1.0,0.25\n0.5,0.5\n2.0,0.25\n")
    calls = [
        ["measure", "oce", "--loss", "asym-quadratic", "--restrict-support", "--penalty", "ball",
         "--delta", "0.5", "--alpha", "0.7", "--samples", str(samples)],
        ["measure", "var", "--prior", "normal:0,1", "--alpha", "0.5", "--bogus"],
        ["sweep", "--prior", "exponential:1", "--penalty", "linear", "--alpha", "0.3,0.7",
         "--delta", "1:3:1", "--out", str(out)],
        ["verify", "reductions", "--seed", "3"],
        ["measure", "quantile", "--penalty", "linear", "--delta", "2", "--alpha", "0.7",
         "--samples", str(samples)],
    ]

    def call(argv):
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    cli._parser.cache_clear()
    for argv in calls:
        reused = call(argv)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            assert call(argv) == reused, argv
    assert [r[0] for r in map(call, calls)] == [0, 1, 0, 0, 0]
    assert cli._parser.cache_info().misses == 1
