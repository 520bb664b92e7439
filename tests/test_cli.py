import csv
import dataclasses
import json

import pytest

from advbayes import certify, cli, examples, reportio
from advbayes.cli import ParseError, ValidationError, main, parse_config
from test_solver import SOLVE_REPORT_PATHS, _key_paths

GAUSS_CFG = """
{
  "class0": [{"type": "gaussian", "weight": 0.5, "mu": 0.0, "sigma": 1.0}],
  "class1": [{"type": "gaussian", "weight": 0.5, "mu": 2.0, "sigma": 1.0}],
  "run": {"epsilon": 0.5}
}
"""


class TestParseConfig:
    def test_minimal_gaussian_defaults(self):
        cfg = parse_config(GAUSS_CFG)
        assert cfg.grid_h == 1e-3
        assert cfg.max_k == 2
        assert cfg.eps_values == [0.5]

    def test_sigma_zero_rejected(self):
        bad = GAUSS_CFG.replace('"sigma": 1.0}],\n  "class1"', '"sigma": 0.0}],\n  "class1"')
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_mass_mismatch_rejected(self):
        bad = GAUSS_CFG.replace('"weight": 0.5, "mu": 0.0', '"weight": 0.7, "mu": 0.0')
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_builtin_example(self):
        cfg = parse_config('{"example": "non_uniqueness_all", "run": {"epsilon": 0.2}}')
        assert cfg.distribution is not None
        assert cfg.distribution.pdf(1, 0.5) == pytest.approx(0.375)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_config("{nope")

    def test_integer_past_digit_limit(self):
        # json.loads raises a plain ValueError past 4,300 digits
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_config('{"run": {"grid_h": 1%s}}' % ("0" * 5000))

    def test_sweep_spec(self):
        cfg = parse_config(
            '{"example": "degenerate", "run": {"epsilon": {"min": 0.1, "max": 0.3, "steps": 3}}}'
        )
        assert cfg.eps_values == pytest.approx([0.1, 0.2, 0.3])

    def test_numeric_out_rejected(self):
        # open() would take a number as a file descriptor
        with pytest.raises(ParseError):
            parse_config('{"example": "degenerate", "run": {"epsilon": 0.05, "out": 2}}')

    def test_atoms_block(self):
        cfg = parse_config(
            '{"atoms": {"class0": [[-0.3, 0.5]], "class1": [[0.3, 0.5]]}, "run": {"epsilon": 0.3}}'
        )
        assert cfg.atoms is not None


class TestExitCodes:
    def test_negative_eps_is_usage_error(self, capsys):
        code = main(["solve", "--example", "gaussians_equal_variances", "--eps", "-1"])
        assert code == 1

    def test_max_k_zero_rejected(self, tmp_path):
        code = main(
            ["certify", "--example", "degenerate", "--eps", "0.05", "--max-k", "0"]
        )
        assert code == 1

    def test_max_k_past_budget(self, capsys):
        # Layers that exceed the budget on any grid fail validation; layers
        # that exceed it on this grid (n = 2,101) exit 3.
        argv = ["certify", "--example", "degenerate", "--eps", "0.05", "--max-k"]
        assert main(argv + [str(certify.WORK_BUDGET)]) == 1
        assert main(argv + ["100000"]) == 3
        assert "(n = 2101, max_k = 100000)" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_h, n", [("1e-300", "n = 2.1e+300"), ("1e-310", "n = inf")])
    def test_tiny_grid_h_past_budget(self, capsys, grid_h, n):
        """A grid too fine for the budget exits 3 with one line, the grid
        count in e notation, even where the count overflows a float."""
        argv = ["certify", "--example", "degenerate", "--eps", "0.05", "--grid-h", grid_h]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: grid primal needs") and f"({n}," in captured.err

    def test_unknown_example(self, capsys):
        assert main(["examples", "not_a_thing"]) == 1

    def test_missing_source(self):
        assert main(["solve", "--eps", "0.5"]) == 1

    def test_config_and_example_flag(self, tmp_path, capsys):
        """Two sources exit 1 naming both, not the config's pair solved
        with the flag dropped."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"example": "degenerate"}))
        assert main(["solve", "--config", str(cfg), "--example", "non_uniqueness_all",
                     "--eps", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --config and --example are both sources; give one\n"

    def test_eps_and_range_flags(self, capsys):
        """A single radius with a full range exits 1, not a sweep of the range."""
        assert main(["sweep", "--example", "degenerate", "--eps", "0.05", "--eps-min", "0.1",
                     "--eps-max", "0.2", "--steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --eps and --eps-min/--eps-max/--steps both set the "
                                "radius; give one\n")

    @pytest.mark.parametrize("config, named", [
        ({"example": "degenerate", "class0": [], "class1": []}, "'example' and 'class0'/'class1'"),
        ({"example": "degenerate", "atoms": {"class0": [], "class1": []}}, "'example' and 'atoms'"),
        ({"atoms": {"class0": [[0.0, 0.5]], "class1": [[0.1, 0.5]]},
          "class1": [{"type": "gaussian", "weight": 0.5, "mu": 2.0, "sigma": 1.0}]},
         "'atoms' and 'class0'/'class1'"),
    ], ids=["example_classes", "example_atoms", "atoms_class1"])
    def test_config_with_two_sources(self, tmp_path, capsys, config, named):
        """A config holding two sources exits 1 naming both, not the first
        of them in a fixed order."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, "run": {"epsilon": 0.05}}))
        assert main(["certify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config holds {named}; give one source\n"

    def test_solve_success(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["solve", "--example", "gaussians_equal_variances", "--eps", "0.5",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["unique_up_to_degeneracy"] is True

    def test_eps_range_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"example": "degenerate", "run": {"epsilon": {"min": 0.1}}}')
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("max_k", ['"fine"', "1e400"])
    def test_non_numeric_max_k(self, tmp_path, capsys, max_k):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"example": "degenerate", "run": {"epsilon": 0.05, "max_k": %s}}' % max_k)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"example": "degenerate", "run": {"epsilon": 0.05, "max_k": 2.7}}, "run.max_k"),
        ({"example": "degenerate", "run": {"epsilon": 0.05, "max_k": True}}, "run.max_k"),
        ({"example": "degenerate", "run": {"epsilon": {"min": 0.1, "max": 0.3, "steps": 2.5}}},
         "run.epsilon.steps"),
        ({"example": "degenerate", "run": {"epsilon": True}}, "run.epsilon"),
        ({"example": "degenerate", "run": {"epsilon": "0.05"}}, "run.epsilon"),
        ({"example": "degenerate", "run": {"epsilon": {"min": "0.1", "max": 0.3, "steps": 2}}},
         "run.epsilon.min"),
        ({"example": "degenerate", "run": {"epsilon": {"min": 0.1, "max": True, "steps": 2}}},
         "run.epsilon.max"),
        ({"example": "degenerate", "run": {"epsilon": 0.05, "grid_h": "1e-3"}}, "run.grid_h"),
        ({"example": "degenerate", "run": {"epsilon": 0.05, "grid_h": 10**400}}, "run.grid_h"),
        ({"example": "degenerate", "run": {"epsilon": 0.05, "tolerance": True}}, "run.tolerance"),
    ], ids=["max_k_float", "max_k_bool", "steps_float", "epsilon_bool",
            "epsilon_string", "min_string", "max_bool", "grid_h_string", "grid_h_huge_int",
            "tolerance_bool"])
    def test_wrongly_typed_run_value(self, tmp_path, capsys, config, key):
        """A run value of the wrong JSON type is an error naming its key,
        never coerced: "false" is not false and 2.7 is not 2."""
        text = json.dumps(config)
        with pytest.raises(ParseError, match=f"'{key}'"):
            parse_config(text)
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["certify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("key", ["grid_n", "keep_all", "tolerence", "full_matching"])
    def test_unknown_run_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"example": "degenerate", "run": {"epsilon": 0.05, key: 1}}))
        assert main(["solve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err and captured.out == ""

    def test_full_matching_flag_rejected(self, capsys):
        assert main(["certify", "--example", "non_equiv", "--eps", "0.3",
                     "--full-matching"]) == 1
        captured = capsys.readouterr()
        assert "--full-matching" in captured.err and captured.out == ""

    @pytest.mark.parametrize("source", [
        ["--example", "degenerate", "--eps-min", "0.1", "--eps-max", "0.1", "--steps", "3"],
        ["--example", "degenerate", "--eps-min", "1", "--eps-max", "1.0000000000000002",
         "--steps", "4"],
        {"example": "degenerate", "run": {"epsilon": {"min": 0.1, "max": 0.1, "steps": 3}}},
    ], ids=["flags", "flags_one_ulp", "config"])
    def test_sweep_radii_not_increasing(self, tmp_path, capsys, source):
        """Radii that repeat are a validation error, not a traceback from the
        monotonicity check between neighbouring rows."""
        if isinstance(source, dict):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(source))
            source = ["--config", str(cfg)]
        assert main(["sweep"] + source) == 1
        captured = capsys.readouterr()
        assert "not strictly increasing" in captured.err and captured.out == ""

    def test_examples_negative_eps(self, capsys):
        assert main(["examples", "degenerate", "--eps", "-1"]) == 1
        captured = capsys.readouterr()
        assert "nonnegative" in captured.err and "[PASS]" not in captured.out

    def test_examples_radius_the_builtin_rejects(self, capsys):
        """The radius-dependent built-in needs eps > 0; ``solve`` already says
        so in one line, and ``examples`` does the same."""
        assert main(["examples", "deg_eta_0_1_counterexample", "--eps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: eps must be positive\n" and captured.out == ""

    @pytest.mark.parametrize("name, eps, span", [
        ("gaussians_equal_variances", "1", "[0.0, 1.0)"),
        ("non_uniqueness_single", "1.2", "[0.0, 0.5)"),
        ("non_uniqueness_all", "0", "(0.0, 0.3333333333333333)"),
        ("non_uniqueness_all", "0.34", "(0.0, 0.3333333333333333)"),
        ("degenerate", "0.13", "[0.0, 0.125)"),
    ])
    def test_examples_radius_outside_the_claims(self, capsys, name, eps, span):
        """A radius at which the built-in's claims are not stated is one
        error line, not FAIL lines or a traceback."""
        assert main(["examples", name, "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the {name} claims are stated for eps in {span}, "
                                f"got {float(eps)!r}\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "--example", "gaussians_equal_variances", "--eps", "1e308"],
        ["sweep", "--example", "gaussians_equal_means", "--eps-min", "1", "--eps-max", "1e308",
         "--steps", "2"],
        ["certify", "--example", "gaussians_equal_means", "--eps", "1e306"],
    ])
    def test_radius_too_large_to_scan(self, capsys, argv):
        """A finite radius whose scanned range overflows is one error line."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: eps=") and "too large" in captured.err

    @pytest.mark.parametrize("eps", ["4e307", "1e308"])
    def test_radius_too_large_for_the_builtin(self, capsys, eps):
        """The radius-dependent built-in's smallest density 1/(18 eps) is 0
        past about 1e307; the error names the radius, not the broken pair."""
        assert main(["solve", "--example", "deg_eta_0_1_counterexample", "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: eps={float(eps)!r} is too large")

    @pytest.mark.parametrize("argv", [
        ["certify", "--example", "degenerate", "--eps", "0.05", "--grid-h", "nan"],
        ["certify", "--example", "degenerate", "--eps", "0.05", "--grid-h", "inf"],
        ["solve", "--example", "gaussians_equal_variances", "--eps", "nan"],
        ["solve", "--example", "gaussians_equal_variances", "--eps", "inf"],
        ["sweep", "--example", "degenerate", "--eps-min", "0.1", "--eps-max", "nan",
         "--steps", "3"],
        ["certify", "--example", "degenerate", "--eps", "0.05", "--tol", "nan"],
        ["certify", "--example", "non_equiv", "--eps", "nan"],
        ["examples", "degenerate", "--eps", "nan"],
        ["solve", "--example", "deg_eta_0_1_counterexample", "--eps", "0"],
    ])
    def test_bad_number_rejected(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("key", ["epsilon", "grid_h", "tolerance"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_run_value(self, tmp_path, capsys, key, value):
        run = {"epsilon": "0.05", key: value}  # raw JSON text; ``key`` may replace epsilon
        cfg = tmp_path / "c.json"
        cfg.write_text('{"example": "degenerate", "run": {%s}}'
                       % ", ".join(f'"{k}": {v}' for k, v in run.items()))
        assert main(["certify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("atom", ["[0.0, NaN]", "[NaN, 0.5]", "[0.0, Infinity]"])
    def test_non_finite_atom(self, tmp_path, capsys, atom):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"atoms": {"class0": [%s], "class1": [[0.3, 0.5]]}, '
                       '"run": {"epsilon": 0.3}}' % atom)
        assert main(["certify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("coeffs", ["[[NaN]]", "[[Infinity]]", "[[1e308, 1e308]]"])
    def test_non_finite_density(self, tmp_path, capsys, coeffs):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            '{"class0": [{"type": "piecewise_poly", "breakpoints": [0, 1], "coeffs": [[0.5]]}], '
            '"class1": [{"type": "piecewise_poly", "breakpoints": [0, 10], "coeffs": %s}], '
            '"run": {"epsilon": 0.1}}' % coeffs)
        assert main(["solve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("config, field", [
        ({"class0": [{"type": "gaussian", "weight": "0.5", "mu": 0.0, "sigma": 1.0}]}, "weight"),
        ({"class0": [{"type": "gaussian", "weight": 0.5, "mu": False, "sigma": 1.0}]}, "mu"),
        ({"class0": [{"type": "gaussian", "weight": 0.5, "mu": 0.0, "sigma": True}]}, "sigma"),
        ({"class0": [{"type": "gaussian", "weight": 0.5, "mu": 10**400, "sigma": 1.0}]}, "mu"),
        ({"class0": [{"type": "piecewise_poly", "breakpoints": ["-1", "1"], "coeffs": [[0.25]]}]},
         "breakpoints"),
        ({"class0": [{"type": "piecewise_poly", "breakpoints": [-1, 1], "coeffs": [["0.25"]]}]},
         "coeffs"),
        ({"atoms": {"class0": [["-0.3", 0.5]], "class1": [[0.3, 0.5]]}}, "atoms.class0 position"),
        ({"atoms": {"class0": [[-0.3, 0.5]], "class1": [[0.3, True]]}}, "atoms.class1 mass"),
    ], ids=["weight_string", "mu_bool", "sigma_bool", "mu_huge_int", "breakpoint_string",
            "coeff_string", "atom_position_string", "atom_mass_bool"])
    def test_wrongly_typed_source_value(self, tmp_path, capsys, config, field):
        """A density or atom field that is not a JSON number is an error
        naming the field, never coerced: false is not 0 and "0.5" is not 0.5."""
        command = "certify" if "atoms" in config else "solve"
        if command == "solve":
            config = {"class1": [{"type": "gaussian", "weight": 0.5, "mu": 2.0, "sigma": 1.0}],
                      **config}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, "run": {"epsilon": 0.3}}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"'{field}'" in captured.err and captured.out == ""

    def test_config_is_directory(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path), "--eps", "0.1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--config", str(cfg), "--eps", "0.1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_warning_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["solve", "--example", "deg_eta_0_1_counterexample", "--eps", "0.1",
             "--out", str(out)]
        )
        assert code == 2  # split support warning


class TestSolveCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = main(
            ["solve", "--example", "degenerate", "--eps", "0.2",
             "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["min_risk"] == pytest.approx(0.1, abs=1e-12)
        assert len(data["classes"]) == 1
        assert data["classes"][0]["representative"] == [["-inf", "inf", False, False]]
        header = csv_path.read_text().splitlines()[0]
        assert header == "epsilon,min_risk,n_classes,unique_up_to_degeneracy,representative"

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", "--example", "non_uniqueness_all", "--eps", "0.2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(GAUSS_CFG)
        out = tmp_path / "report.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["classes"]) == 1


SWEEP_REPORT_PATHS = {
    "rows", "rows[].comp_classifier", "rows[].comp_complement", "rows[].monotonic_vs_prev",
    "reports",
}


class TestSweepCommand:
    def test_sweep_report_schema(self, tmp_path):
        """A sweep prints the rows' keys and one solve report per radius, with
        no key outside the solve report's schema."""
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--example", "non_uniqueness_all", "--eps-min", "0.05",
                     "--eps-max", "0.45", "--steps", "9", "--out", str(out)]) == 0
        paths = _key_paths(json.loads(out.read_text()))
        nested = {p for p in paths if p.startswith("reports[].")}
        assert paths - nested == SWEEP_REPORT_PATHS
        assert {p.removeprefix("reports[].") for p in nested} <= SOLVE_REPORT_PATHS

    def test_rows_and_monotonicity(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--example", "gaussians_equal_variances",
             "--eps-min", "0.5", "--eps-max", "1.5", "--steps", "3",
             "--csv", str(csv_path), "--out", str(out)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",")[0] == "epsilon"
        assert len(lines) == 4
        data = json.loads(out.read_text())
        risks = [r["min_risk"] for r in data["reports"]]
        assert risks == sorted(risks)
        assert all(r["monotonic_vs_prev"] in ("", "true") for r in data["rows"])
        # uniqueness flips exactly at half the mean separation
        uniq = [r["unique_up_to_degeneracy"] for r in data["reports"]]
        assert uniq == [True, False, False]

    def test_single_step_matches_solve(self, tmp_path):
        sweep_out, sweep_csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        solve_out, solve_csv = tmp_path / "solve.json", tmp_path / "solve.csv"
        main(["sweep", "--example", "degenerate", "--eps-min", "0.05",
              "--eps-max", "0.05", "--steps", "1", "--out", str(sweep_out),
              "--csv", str(sweep_csv)])
        main(["solve", "--example", "degenerate", "--eps", "0.05",
              "--out", str(solve_out), "--csv", str(solve_csv)])
        sweep = json.loads(sweep_out.read_text())
        solve = json.loads(solve_out.read_text())
        assert sweep["reports"][0]["min_risk"] == solve["min_risk"]
        [solve_row] = csv.DictReader(solve_csv.read_text().splitlines())
        [sweep_row] = csv.DictReader(sweep_csv.read_text().splitlines())
        assert list(solve_row) == reportio.SOLVE_COLUMNS
        assert solve_row == {c: sweep_row[c] for c in reportio.SOLVE_COLUMNS}


class TestCertifyCommand:
    def test_certify_degenerate(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(
            ["certify", "--example", "degenerate", "--eps", "0.05",
             "--grid-h", "2e-3", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["gap_report"]["gap"]) <= 5e-3

    def test_atomic_mode(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--example", "non_equiv", "--eps", "0.3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certificate"]["dual_value"] == 0.5
        assert data["certificate"]["matching"] == [[0, 0, 0.5]]

    @pytest.mark.parametrize("name, tol, failing", [
        ("non_uniqueness_all", "1e-20", ["gap"]),  # gap -3.75e-4, the dual's h slack
        ("non_uniqueness_single", "1e-6", ["gap"]),  # solver - primal is about 2e-15
        ("gaussians_equal_means", "1e-12", ["solver_vs_primal", "gap"]),
    ])
    def test_failed_check_named(self, name, tol, failing, capsys):
        """Each check whose |value| exceeds --tol is named, in report order,
        with the report's own value; ``failing`` are those far past --tol,
        named whatever the rounding of the grid primal and the dual."""
        code = main(["certify", "--example", name, "--eps", "0.2", "--tol", tol])
        out, err = capsys.readouterr()
        data = json.loads(out)
        values = {"solver_vs_primal": data["solver_vs_primal"], "gap": data["gap_report"]["gap"]}
        named = [k for k, v in values.items() if abs(v) > float(tol)]
        assert set(failing) <= set(named)
        assert code == (1 if named else 0)
        message = ", ".join(f"{k} = {values[k]!r}" for k in named)
        assert err.splitlines() == (
            [f"error: certificate exceeds --tol {float(tol)!r}: {message}"] if named else [])

    def test_failed_solver_check_alone(self, capsys, monkeypatch):
        """A primal far from the solver's risk with a zero gap names only
        ``solver_vs_primal``."""
        real = certify.duality_gap
        monkeypatch.setattr(certify, "duality_gap", lambda *args: dataclasses.replace(
            real(*args), primal=0.3, gap=0.0))
        assert main(["certify", "--example", "non_uniqueness_all", "--eps", "0.2"]) == 1
        out, err = capsys.readouterr()
        value = json.loads(out)["solver_vs_primal"]
        assert abs(value) > 0.05
        assert err.splitlines() == [
            f"error: certificate exceeds --tol 0.005: solver_vs_primal = {value!r}"]

    def test_pass_writes_no_stderr(self, capsys):
        assert main(["certify", "--example", "non_uniqueness_all", "--eps", "0.2"]) == 0
        assert capsys.readouterr().err == ""

    def test_budget_exit_code(self):
        code = main(
            ["certify", "--example", "gaussians_equal_variances", "--eps", "1.0",
             "--grid-h", "1e-6"]
        )
        assert code == 3


@pytest.mark.parametrize("name", examples.EXAMPLE_NAMES + ("non_equiv",))
@pytest.mark.parametrize("command", ["solve", "certify"])
def test_config_example_matches_flag(tmp_path, capsys, name, command):
    """A config naming a built-in gives what ``--example`` gives: a built-in
    tuned to the radius is built at the radius solved in both."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"example": name}))

    def run(source):
        code = main([command] + source + ["--eps", "0.05", "--grid-h", "2e-3"])
        out, err = capsys.readouterr()
        return code, out, err

    assert run(["--config", str(cfg)]) == run(["--example", name])


class TestParserCache:
    ARGVS = [
        ["solve", "--example", "non_uniqueness_all", "--eps", "0.2"],
        ["solve", "--example", "non_uniqueness_all", "--eps", "0.1", "--tol", "1e-3"],
        ["sweep", "--example", "degenerate", "--eps-min", "0.05", "--eps-max", "0.1",
         "--steps", "2"],
        ["examples", "non_uniqueness_single"],
        ["certify", "--example", "non_equiv", "--eps", "0.3"],
        ["certify", "--example", "degenerate", "--eps", "0.05", "--grid-h", "2e-3"],
        ["solve", "--bogus"],
        ["solve", "--example", "non_uniqueness_all", "--eps", "0.2"],
    ]

    def test_one_parser_serves_every_call(self, capsys):
        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        separate = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()  # a fresh parser, as in a new process
            separate.append(run(argv))
        cli._build_parser.cache_clear()
        shared = [run(argv) for argv in self.ARGVS]
        assert shared == separate
        assert cli._build_parser.cache_info().misses == 1


class TestExamplesCommand:
    @pytest.mark.parametrize("name", [
        "gaussians_equal_variances",
        "gaussians_equal_means",
        "non_uniqueness_single",
        "non_uniqueness_all",
        "degenerate",
        "deg_eta_0_1_counterexample",
    ])
    def test_builtin_regressions_pass(self, name, capsys):
        assert main(["examples", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(not line.startswith("[FAIL]") for line in lines)
        assert any(line.startswith("[PASS]") for line in lines)

    def test_disputed_values_echoed(self, capsys):
        assert main(["examples", "non_uniqueness_single"]) == 0
        out = capsys.readouterr().out
        assert "[note]" in out and "stated_threshold" in out
