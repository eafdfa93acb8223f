import json
import math
import warnings

import numpy as np
import pytest

from gfcap import cli, feedback, simulator
from gfcap.cli import main
from gfcap.feedback import conjecture_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


class TestCapacityCommand:
    def test_paper_channel_one_bit(self, capsys):
        code, out, _ = run(capsys, "capacity", "--power", "2")
        assert code == 0
        assert "capacity_bits = 1.000000" in out

    def test_white_half_bit(self, capsys):
        code, doc, _ = run_json(capsys, "capacity", "--psd", "white:1",
                                "--power", "1")
        assert code == 0
        assert doc["outputs"]["capacity_bits"] == pytest.approx(0.5, abs=1e-9)

    def test_paper_channel_p1(self, capsys):
        code, doc, _ = run_json(capsys, "capacity", "--power", "1")
        assert code == 0
        assert doc["outputs"]["capacity_bits"] == pytest.approx(0.7834379,
                                                                abs=1e-6)

    def test_psd_file(self, capsys, tmp_path):
        path = tmp_path / "psd.json"
        path.write_text(json.dumps({"type": "white", "level": 2.0}))
        code, doc, _ = run_json(capsys, "capacity", "--psd", str(path),
                                "--power", "6")
        assert code == 0
        assert doc["outputs"]["capacity_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_white_at_high_power(self, capsys):
        code, doc, _ = run_json(capsys, "capacity", "--psd", "white:1",
                                "--power", "1e6")
        assert code == 0
        assert doc["outputs"]["capacity_bits"] == pytest.approx(
            0.5 * math.log2(1.0 + 1e6), abs=1e-12)

    def test_paper_channel_at_high_power(self, capsys):
        code, doc, _ = run_json(capsys, "capacity", "--power", "1e6")
        assert code == 0
        assert doc["outputs"]["capacity_bits"] == pytest.approx(
            0.5 * math.log2(1e6 + 2.0), abs=1e-12)


class TestSkRateCommand:
    def test_unit_power(self, capsys):
        code, doc, _ = run_json(capsys, "sk-rate", "--power", "1")
        assert code == 0
        assert doc["outputs"]["x0"] == pytest.approx(0.46898994, abs=1e-7)
        assert doc["outputs"]["rate_bits"] == pytest.approx(1.09237111, abs=1e-7)

    def test_threshold_power(self, capsys):
        code, doc, _ = run_json(capsys, "sk-rate", "--power", "0.75")
        assert code == 0
        assert doc["outputs"]["x0"] == pytest.approx(0.5, abs=1e-10)
        assert doc["outputs"]["rate_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_tiny_power(self, capsys):
        code, doc, _ = run_json(capsys, "sk-rate", "--power", "1e-8")
        assert code == 0
        assert doc["outputs"]["rate_bits"] == pytest.approx(0.0, abs=1e-2)

    def test_huge_power(self, capsys):
        # x0 = 1e-50 to within 1e-17 relative, so the rate is log2(1e50)
        code, doc, _ = run_json(capsys, "sk-rate", "--power", "1e100")
        assert code == 0
        assert doc["outputs"]["rate_bits"] == pytest.approx(
            50.0 * math.log2(10.0), abs=1e-12)


class TestBoundsCommand:
    def test_paper_channel_table(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--power", "1",
                                "--alpha-min", "0.5", "--alpha-max", "4",
                                "--alpha-points", "7")
        assert code == 0
        out = doc["outputs"]
        c1 = out["c_p"]
        assert out["cp_double"] == pytest.approx(2 * c1, abs=1e-12)
        assert out["cp_plus_half"] == pytest.approx(c1 + 0.5, abs=1e-12)
        row2 = [r for r in out["cy_curve"] if abs(r[0] - 2.0) < 1e-9]
        assert row2, "alpha grid should contain 2.0"
        assert row2[0][1] == pytest.approx(1.5, abs=1e-6)
        assert row2[0][2] == pytest.approx(1.0 + 0.5 * math.log2(1.5), abs=1e-6)

    def test_singleton_alpha_equals_cover_pombra(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--psd", "white:1",
                                "--power", "1", "--alpha-min", "1",
                                "--alpha-max", "1", "--alpha-points", "1")
        assert code == 0
        out = doc["outputs"]
        assert out["cy_curve"][0][1] == pytest.approx(out["cp_double"], abs=1e-12)
        assert out["cy_curve"][0][2] == pytest.approx(out["cp_plus_half"],
                                                      abs=1e-12)


class TestCounterexampleCommand:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "CONJECTURE VIOLATED: C_FB(1) >= 1.092371 > 1 = C(2)" in out
        assert "violated = true" in out

    def test_json_fields(self, capsys):
        code, doc, _ = run_json(capsys, "counterexample")
        assert code == 0
        out = doc["outputs"]
        assert out["c_2"] == pytest.approx(1.0, abs=1e-6)
        assert out["x0"] == pytest.approx(0.46898994, abs=1e-7)
        assert out["margin"] == pytest.approx(0.09237111, abs=1e-6)
        assert doc["verdicts"]["violated"] is True

    def test_power_sweep(self, capsys):
        code, doc, _ = run_json(capsys, "counterexample",
                                "--power-sweep", "0.5..2:4")
        assert code == 0
        rows = doc["outputs"]["power_sweep"]
        assert len(rows) == 4
        for p, rate, c2p, violated in rows:
            assert violated == (rate > c2p)

    def test_power_sweep_grid_equals_np_linspace(self):
        """The sweep's powers are built in plain Python by numpy's
        linspace arithmetic, and equal np.linspace bit for bit on 2,000
        drawn grids, ends written at full precision."""
        rng = np.random.default_rng(14)
        for _ in range(2000):
            lo = float(10.0 ** rng.uniform(-3.0, 2.0))
            hi = lo + float(10.0 ** rng.uniform(-12.0, 3.0))
            steps = int(rng.integers(2, 200))
            grid = cli._parse_sweep(f"{lo!r}..{hi!r}:{steps}")
            assert all(type(p) is float for p in grid)
            assert np.array_equal(grid, np.linspace(lo, hi, steps))

    def test_power_sweep_rows_equal_conjecture_check(self, capsys):
        code, doc, _ = run_json(capsys, "counterexample",
                                "--power-sweep", "0.5..2:10")
        assert code == 0
        rows = doc["outputs"]["power_sweep"]
        assert len(rows) == 10
        for p, rate, c2p, violated in rows:
            rep = conjecture_check(p)
            assert [rate, c2p, violated] == [rep.sk_rate,
                                             rep.conjecture_bound,
                                             rep.violated]

    def test_power_sweep_solves_only_what_it_prints(self, capsys,
                                                    monkeypatch):
        def distinct_keys(*argv):
            keys = set()
            solve = feedback.nonfeedback_capacity

            def counting(psd, power, config=None):
                keys.add((psd, float(power)))
                return solve(psd, power, config)

            monkeypatch.setattr(feedback, "nonfeedback_capacity", counting)
            monkeypatch.setattr(cli, "nonfeedback_capacity", counting)
            assert run(capsys, "counterexample", *argv)[0] == 0
            monkeypatch.undo()
            return len(keys)

        report_keys = distinct_keys()
        assert distinct_keys("--power-sweep", "0.5..2:10") \
            <= report_keys + 10

    def test_power_sweep_reuses_the_report(self, capsys, monkeypatch):
        """The grid 0.5..2:4 hits P = 0.5, whose C(2P) is the report's C(1),
        and P = 1, whose C(2) and sk_root(1) the report holds: no capacity
        and no sk_root is solved twice, and the rows still equal
        conjecture_check's."""
        solved = {"capacity": [], "sk_root": []}
        solve, root = feedback.nonfeedback_capacity, feedback.sk_root

        def counting_capacity(psd, power, config=None):
            solved["capacity"].append((psd, float(power)))
            return solve(psd, power, config)

        def counting_sk_root(power):
            solved["sk_root"].append(float(power))
            return root(power)

        for owner in (feedback, cli):
            monkeypatch.setattr(owner, "nonfeedback_capacity",
                                counting_capacity)
            monkeypatch.setattr(owner, "sk_root", counting_sk_root)
        code, doc, _ = run_json(capsys, "counterexample",
                                "--power-sweep", "0.5..2:4")
        monkeypatch.undo()
        assert code == 0
        for calls in solved.values():
            assert len(calls) == len(set(calls))
        assert sorted(solved["sk_root"]) == [0.5, 1.0, 1.5, 2.0]
        rows = doc["outputs"]["power_sweep"]
        assert [row[0] for row in rows] == [0.5, 1.0, 1.5, 2.0]
        for p, rate, c2p, violated in rows:
            rep = conjecture_check(p)
            assert [rate, c2p, violated] == [rep.sk_rate,
                                             rep.conjecture_bound,
                                             rep.violated]


class TestSimulateCommand:
    def test_deterministic_json(self, capsys, tmp_path):
        argv = ("simulate", "--power", "1", "--horizon", "30", "--trials",
                "100", "--seed", "7", "--trace-out",
                str(tmp_path / "t.csv"))
        code1, doc1, _ = run_json(capsys, *argv)
        code2, doc2, _ = run_json(capsys, *argv)
        assert code1 == code2 == 0
        doc1.pop("wall_time_s")
        doc2.pop("wall_time_s")
        assert json.dumps(doc1) == json.dumps(doc2)
        assert (tmp_path / "t.csv").exists()

    def test_white_noise_contraction(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "simulate", "--psd", "white:1",
                                "--power", "3", "--horizon", "200",
                                "--trials", "10", "--trace-out",
                                str(tmp_path / "t.csv"))
        assert code == 0
        assert doc["outputs"]["contraction_deterministic"] == pytest.approx(
            0.5, abs=1e-6)

    def test_below_rate_zero_errors(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "simulate", "--power", "1",
                                "--horizon", "40", "--trials", "1000",
                                "--seed", "7", "--trace-out",
                                str(tmp_path / "t.csv"))
        assert code == 0
        assert doc["outputs"]["decode_errors"] == 0


class TestExitCodes:
    def test_invalid_power(self, capsys):
        code, _, err = run(capsys, "capacity", "--power", "-2")
        assert code == 2
        assert "error" in err

    def test_sk_rate_invalid_power(self, capsys):
        code, _, _ = run(capsys, "sk-rate", "--power", "0")
        assert code == 2

    def test_malformed_psd_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "capacity", "--psd", str(path),
                           "--power", "1")
        assert code == 2

    def test_missing_psd_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "capacity", "--psd",
                         str(tmp_path / "nope.json"), "--power", "1")
        assert code == 2

    def test_unwritable_trace_is_invalid(self, capsys, tmp_path,
                                         monkeypatch):
        """The trace is written before the Monte Carlo runs, and a path
        that cannot be written is an input error."""
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the trace failed")

        monkeypatch.setattr(simulator, "simulate_transmission", forbidden)
        code, out, err = run(capsys, "simulate", "--power", "1",
                             "--trace-out",
                             str(tmp_path / "missing" / "t.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write trace")

    def test_forced_nonconvergence(self, capsys):
        code, _, err = run(capsys, "capacity", "--power", "2",
                           "--tol", "1e-30")
        assert code == 3
        assert "converge" in err

    @pytest.mark.parametrize("psd", [
        "white:0",
        {"type": "ma", "coeffs": [0.0]},
        {"type": "samples", "values": [1.0, 0.0, 0.0, 1.0]},
    ], ids=["white_zero", "ma_zero_taps", "samples_zero_band"])
    def test_vanishing_spectrum_is_invalid(self, capsys, tmp_path, psd):
        if isinstance(psd, dict):
            path = tmp_path / "psd.json"
            path.write_text(json.dumps(psd))
            psd = str(path)
        code, out, err = run(capsys, "capacity", "--psd", psd,
                             "--power", "1")
        assert code == 2
        assert out == ""
        assert "infinite" in err

    @pytest.mark.parametrize("psd", [
        {"type": "ma", "coeffs": "12"},
        {"type": "samples", "values": "3102"},
        {"type": "ma", "coeffs": [True, 1]},
        {"type": "samples", "values": [1.0, False, 2.0]},
        {"type": "ma", "coeffs": {"0": 1.0}},
        {"type": "ma", "coeffs": [1.0, 0.5], "sigma2": "2"},
        {"type": "ma", "coeffs": [1.0, 0.5], "sigma2": True},
        {"type": "white", "level": "1"},
        {"type": "white", "level": True},
        {"type": "white", "level": [1.0]},
        {"type": "ma", "coeffs": [1, 10 ** 400]},
    ], ids=["coeffs_string", "values_string", "coeffs_bool",
            "values_bool", "coeffs_object", "sigma2_string", "sigma2_bool",
            "level_string", "level_bool", "level_array", "coeffs_overflow"])
    def test_non_numeric_psd_fields_are_invalid(self, capsys, tmp_path,
                                                psd):
        """coeffs and values must be JSON arrays of numbers, and sigma2 and
        level numbers: a string is not read digit by digit, true is not 1,
        and an integer beyond the float range is no float."""
        path = tmp_path / "psd.json"
        path.write_text(json.dumps(psd))
        code, out, err = run(capsys, "capacity", "--psd", str(path),
                             "--power", "1")
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("coeffs", [[1.0, 2.0, 1.0],
                                        [1.0, 3.0, 3.0, 1.0]])
    def test_multiple_unit_circle_zeros_do_not_converge(self, capsys,
                                                        tmp_path, coeffs):
        path = tmp_path / "psd.json"
        path.write_text(json.dumps({"type": "ma", "coeffs": coeffs}))
        code, out, err = run(capsys, "capacity", "--psd", str(path),
                             "--power", "1")
        assert code == 3
        assert out == ""
        assert "converge" in err

    @pytest.mark.parametrize("argv", [
        ("capacity", "--power", "nan"),
        ("capacity", "--power", "inf"),
        ("capacity", "--psd", "white:nan", "--power", "1"),
        ("capacity", "--power", "1", "--tol", "nan"),
        ("bounds", "--power", "nan"),
        ("counterexample", "--power-sweep", "0.5..nan:3"),
        ("sk-rate", "--power", "nan"),
        ("sk-rate", "--power", "inf"),
        ("simulate", "--power", "nan"),
        ("simulate", "--power", "1", "--rate", "inf"),
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_non_finite_input_is_invalid(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err or "bad power sweep" in err

    @pytest.mark.parametrize("argv", [
        ("--alpha-min", "0"),
        ("--alpha-min", "-1"),
        ("--alpha-min", "nan"),
        ("--alpha-max", "inf"),
        ("--alpha-points", "-3"),
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_bad_alpha_input_is_invalid(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "bounds", "--power", "1", *argv)
        assert code == 2
        assert out == ""
        assert caught == []
        assert err.startswith("error: alpha")
        assert err.count("\n") == 1
        assert "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ("sk-rate", "--power", "1", "--tol", "nan"),
        ("simulate", "--power", "1", "--tol", "1e-8"),
    ], ids=["sk-rate", "simulate"])
    def test_tol_only_where_it_is_read(self, capsys, argv):
        """sk-rate and simulate read no tolerance, so argparse rejects
        --tol there."""
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_counterexample_honours_tol(self, capsys):
        code, _, err = run(capsys, "counterexample", "--tol", "1e-20")
        assert code == 3
        assert "converge" in err


class TestFormatAgreement:
    @pytest.mark.parametrize("argv", [
        ("capacity", "--power", "2"),
        ("sk-rate", "--power", "1"),
        ("counterexample",),
    ])
    def test_text_and_json_values_agree(self, capsys, argv):
        _, text_out, _ = run(capsys, *argv)
        _, doc, _ = run_json(capsys, *argv)
        text_values = {}
        for line in text_out.splitlines():
            if " = " in line:
                key, _, value = line.partition(" = ")
                try:
                    text_values[key.strip()] = float(value)
                except ValueError:
                    pass
        flat = {**doc["inputs"], **doc["outputs"], **doc["verdicts"]}
        checked = 0
        for key, value in flat.items():
            if isinstance(value, float) and key in text_values:
                assert text_values[key] == pytest.approx(value, abs=5e-7)
                checked += 1
        assert checked >= 2

    def test_json_round_trips_exactly(self, capsys):
        _, doc, _ = run_json(capsys, "counterexample")
        again = json.loads(json.dumps(doc))
        assert again == doc
