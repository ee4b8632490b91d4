"""CLI subcommands: formats, exit codes, reproducibility."""

import csv
import io
import json
import math

import pytest

from inforate.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestDownsample:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "downsample", "--M", "3", "--blocks", "1,7,10"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "dim_out", "rel_loss", "rel_loss_float"]
        by_n = {r[0]: r for r in rows}
        assert by_n["7"][1:3] == ["2", "5/7"]
        assert by_n["limit"][2] == "2/3"

    def test_m_one_lossless(self, capsys):
        code, out, _ = run_cli(capsys, "downsample", "--M", "1", "--blocks", "5")
        _, rows = parse_csv(out)
        assert all(r[2] == "0" for r in rows)


    @pytest.mark.parametrize("blocks", ["0", "-4", "2.5"])
    def test_bad_block_length_exits_2(self, capsys, blocks):
        code, out, err = run_cli(capsys, "downsample", "--M", "3", "--blocks", blocks)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --blocks")

    def test_bad_m_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "downsample", "--M", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --M must be >= 1")


class TestCyclicSweep:
    def test_closed_forms_in_table(self, capsys):
        code, out, _ = run_cli(capsys, "cyclic-sweep", "--ratios", "0.5,1.0")
        assert code == 0
        header, rows = parse_csv(out)
        top = dict(zip(header, rows[0]))
        assert float(top["loss_rate_quad"]) == pytest.approx(0.5, abs=1e-3)
        assert float(top["hw2x1_quad"]) == pytest.approx(
            0.5 / math.log(2.0), abs=1e-6
        )
        last = dict(zip(header, rows[1]))
        assert float(last["hw2x1_quad"]) == pytest.approx(1.0, abs=1e-6)

    def test_bad_ratio_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cyclic-sweep", "--ratios", "0.5,1.5")
        assert code == 2
        assert "error" in err


class TestTightness:
    def test_all_residuals_small(self, capsys):
        code, out, _ = run_cli(capsys, "tightness")
        assert code == 0
        report = json.loads(out)
        assert all(v <= 1e-6 for v in report["residuals"].values())
        assert report["lumpability"]["condition_holds"]
        assert report["lumpability"]["tightness_a_holds"]
        assert report["lumpability"]["tightness_b_holds"]
        assert report["h_marginal"] == pytest.approx(2.0, abs=1e-9)
        assert report["h_rate"] == pytest.approx(1.0, abs=1e-9)


class TestLumpCheck:
    def test_holds_exits_zero(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "ar1", "a": 0.5, "sigma": 1.0},
                    "function": {"kind": "magnitude"},
                    "estimation": {"grid": 101},
                }
            )
        )
        code, out, _ = run_cli(capsys, "lump-check", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["condition_holds"] is True

    def test_failure_exits_one(self, capsys, tmp_path):
        # quotient of the wrapped walk by a quarter-turn is Markov, but
        # folding it afterwards is not; compose triggers the failure
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "cyclic_walk", "M": 1.0, "a": 0.3},
                    "function": {
                        "compose": [
                            {"kind": "magnitude"},
                            {"kind": "shift_mod", "period": 0.5, "lo": 0.0, "hi": 1.0},
                        ]
                    },
                    "estimation": {"grid": 101},
                }
            )
        )
        code, out, _ = run_cli(capsys, "lump-check", "--config", str(cfg))
        assert code == 1
        report = json.loads(out)
        assert report["condition_holds"] is False
        assert report["witnesses"]


    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, capsys, tmp_path, tol):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "ar1", "a": 0.5, "sigma": 1.0},
                    "function": {"kind": "magnitude"},
                }
            )
        )
        code, out, err = run_cli(
            capsys, "lump-check", "--config", str(cfg), f"--tol={tol}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol") and len(err.splitlines()) == 1

    def test_grid_flag_overrides_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "cyclic_walk", "M": 1.0, "a": 0.35},
                    "function": {"kind": "magnitude"},
                    "estimation": {"grid": 101},
                }
            )
        )
        code, out, err = run_cli(
            capsys, "lump-check", "--config", str(cfg), "--grid", "151"
        )
        assert code == 0
        assert json.loads(out)["grid"] == "151x151 on [0, 1]^2"
        assert json.loads(err.strip().splitlines()[-1])["grid"] == 151


class TestAnalyze:
    def test_matches_direct_api(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "ar1", "a": 0.5, "sigma": 1.0},
                    "function": {"kind": "magnitude"},
                    "estimation": {"samples": 100000, "seed": 42, "grid": 101},
                }
            )
        )
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        got = json.loads(out)["loss_rate"]

        from inforate import analyze_loss_rate, magnitude, make_ar1

        want = analyze_loss_rate(
            magnitude(), make_ar1(0.5, 1.0), n_samples=100000, seed=42, grid=101
        )
        assert got["bound_L"] == want.bound_L
        assert got["lower_bound"] == pytest.approx(want.lower_bound, abs=1e-12)
        assert got["bound_HW2X1"] == pytest.approx(want.bound_HW2X1, abs=1e-12)
        assert got["value"] == pytest.approx(want.value, abs=1e-12)

    def test_flags_override_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "iid_uniform", "lo": 0.0, "hi": 2.0},
                    "function": {"kind": "quantizer", "edges": [0.0, 1.0, 2.0]},
                    "estimation": {"seed": 3, "samples": 1000},
                }
            )
        )
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg), "--seed", "7")
        assert code == 0
        meta = json.loads(err.strip().splitlines()[-1])
        assert (meta["seed"], meta["samples"]) == (7, 1000)

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"process": {"kind": "ar1", }')
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "line" in err

    def test_domain_not_covering_support_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "ar1", "a": 0.5, "sigma": 1.0},
                    "function": {"kind": "magnitude", "lo": -1.0, "hi": 1.0},
                }
            )
        )
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "does not cover" in err

    def test_unknown_field_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "ar1", "a": 0.5, "sigma": 1.0, "rho": 3},
                    "function": {"kind": "magnitude"},
                }
            )
        )
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "rho" in err

    def test_square_compose_config(self, capsys, tmp_path):
        # square then halve: still an even two-branch fold, one bit lost
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "iid_gaussian", "sigma": 1.0},
                    "function": {
                        "compose": [{"kind": "square"}, {"kind": "scale", "k": 0.5}]
                    },
                    "estimation": {"samples": 100000, "grid": 101},
                }
            )
        )
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["loss_rate"]["bound_L"] == 1.0

    def test_quantizer_routes_to_relative_loss(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": {"kind": "iid_uniform", "lo": 0.0, "hi": 1.0},
                    "function": {"kind": "quantizer", "edges": [0.0, 0.5, 1.0]},
                }
            )
        )
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["pipeline"] == "relative-loss"
        assert report["relative_loss"] == 1.0


class TestConfigUsageErrors:
    AR1 = {"kind": "ar1", "a": 0.5, "sigma": 1.0}

    def analyze(self, capsys, tmp_path, process=None, estimation=None):
        spec = {"process": process or self.AR1, "function": {"kind": "magnitude"}}
        if estimation is not None:
            spec["estimation"] = estimation
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(spec))
        return run_cli(capsys, "analyze", "--config", str(cfg))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples", "x"),
            ("samples", 1e5),
            ("bins", True),
            ("seed", None),
            ("grid", "101"),
            ("block_order", 4.0),
            ("quad_tol", 0),
            ("quad_tol", -1e-9),
            ("quad_tol", "1e-9"),
            ("quad_tol", False),
            ("quad_tol", math.inf),
            ("quad_tol", math.nan),
            ("bins", 0),
            ("seed", -1),
            ("grid", 50),
            ("samples", 500),
            ("block_order", 7),
            ("block_order", -1),
        ],
    )
    def test_bad_estimation_field_exits_2(self, capsys, tmp_path, field, value):
        code, out, err = self.analyze(capsys, tmp_path, estimation={field: value})
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bins", "0"),
            ("--seed", "-1"),
            ("--samples", "500"),
            ("--grid", "50"),
            ("--quad-tol", "0"),
            ("--quad-tol", "inf"),
            ("--quad-tol", "nan"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "ar1-sweep", "--a-values", "0.5", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be")
        assert len(err.strip().splitlines()) == 1

    def test_quad_tol_that_overflows_to_inf_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        spec = {"process": self.AR1, "function": {"kind": "magnitude"}}
        cfg.write_text(json.dumps(spec)[:-1] + ', "estimation": {"quad_tol": 1e400}}')
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "quad_tol" in err

    def test_cyclic_sweep_refuses_an_infinite_quad_tol(self, capsys):
        code, out, err = run_cli(
            capsys, "cyclic-sweep", "--ratios", "0.35", "--quad-tol", "inf"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --quad-tol must be")

    WALK = {"kind": "cyclic_walk", "M": 1.0, "a": 0.35}

    @pytest.mark.parametrize(
        "function, word",
        [
            ({"kind": "shift_mod", "period": 1.0, "ofset": 0.5}, "ofset"),
            ({"kind": "scale", "k": True}, "'k'"),
            ({"kind": "scale", "k": "2"}, "'k'"),
            ({"kind": "magnitude", "foo": 1}, "foo"),
            (
                {"compose": [{"kind": "magnitude"}, {"kind": "scale", "k": 2, "x": 1}]},
                "'x'",
            ),
            ({"compose": [{"kind": "magnitude"}], "kind": "scale"}, "compose"),
            ({"compose": [3]}, "object"),
            ({"kind": ["magnitude"]}, "kind"),
            ({"kind": "identity", "lo": "-1"}, "'lo'"),
            ({"kind": "quantizer", "edges": [-1.0, "0", 1.0]}, "edges"),
            ({"kind": "quantizer", "edges": 2.0}, "edges"),
            ({"kind": "quantizer", "edges": [-1.0, 1.0], "lo": -1.0}, "lo"),
            ({"kind": "shift_mod", "period": 1e-320}, "shift_mod"),
        ],
        ids=[
            "misspelt offset",
            "bool factor",
            "string factor",
            "magnitude with a field",
            "compose entry with a field",
            "compose beside a kind",
            "compose entry not an object",
            "kind not a string",
            "string domain end",
            "string edge",
            "edges not a list",
            "quantizer with a domain",
            "period too small to count",
        ],
    )
    def test_bad_function_spec_exits_2(self, capsys, tmp_path, function, word):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"process": self.WALK, "function": function}))
        code, out, err = run_cli(capsys, "lump-check", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "process, function",
        [
            ({"kind": "ar1", "a": 0.5, "sigma": math.nan}, None),
            ({"kind": "iid_gaussian", "sigma": math.nan}, None),
            ({"kind": "cyclic_walk", "M": math.inf, "a": 0.5}, None),
            ({"kind": "iid_uniform", "lo": 0.0, "hi": math.inf}, None),
            ({"kind": "iid_uniform", "lo": -1e308, "hi": 1e308}, None),
            (None, {"kind": "scale", "k": math.nan}),
        ],
    )
    def test_non_finite_parameter_exits_2(self, capsys, tmp_path, process, function):
        # json writes and reads NaN and Infinity; the config refuses them
        spec = {
            "process": process or self.AR1,
            "function": function or {"kind": "magnitude"},
            "estimation": {"samples": 1000},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "process",
        [
            {"kind": "ar1", "a": 0.5, "sigma": 1e-320},
            {"kind": "ar1", "a": 0.5, "sigma": 1e200},
            {"kind": "iid_gaussian", "sigma": 1e-300},
            {"kind": "iid_gaussian", "sigma": 1e200},
            {"kind": "cyclic_walk", "M": 1e308, "a": 0.5},
            {"kind": "cyclic_walk", "M": 1.0, "a": 5e-324},
            {"kind": "iid_uniform", "lo": 0.0, "hi": 5e-324},
        ],
    )
    def test_constant_past_the_float_range_exits_2(self, capsys, tmp_path, process):
        # each builds a normalizing constant that is 0 or not finite
        spec = {
            "process": process,
            "function": {"kind": "magnitude"},
            "estimation": {"samples": 10**4},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows or underflows" in err
        assert len(err.strip().splitlines()) == 1

    UNCOVERED = {
        "square from 0": {"compose": [{"kind": "square", "lo": 0}, {"kind": "square"}]},
        "quantizer on [0, 2)": {"kind": "quantizer", "edges": [0, 1, 2]},
    }

    @pytest.mark.parametrize("command", ["analyze", "lump-check"])
    @pytest.mark.parametrize("function", UNCOVERED.values(), ids=UNCOVERED)
    def test_function_not_covering_the_window_exits_2(
        self, capsys, tmp_path, command, function
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"process": self.AR1, "function": function}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: function domain [0.0, ")
        assert "does not cover the process support window" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("function", UNCOVERED.values(), ids=UNCOVERED)
    def test_parse_config_refuses_a_function_not_covering_the_window(
        self, function
    ):
        from inforate.config import parse_config
        from inforate.errors import IncompatibleSpecError

        text = json.dumps({"process": self.AR1, "function": function})
        with pytest.raises(IncompatibleSpecError, match="does not cover"):
            parse_config(text)

    MAGNITUDE = {"kind": "magnitude"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ar1-sweep", "--a-values", "0.5", "--sigma", "0"], "sigma must be"),
            (["ar1-sweep", "--a-values", "0.5", "--sigma", "nan"], "sigma must be"),
            (["cyclic-sweep", "--M", "0"], "need 0 < a <= M"),
            (["cyclic-sweep", "--M", "inf"], "need 0 < a <= M"),
            ({"kind": "quantizer", "edges": [-1.0, 0.0, 1.0]}, "all-injective"),
            (
                {"compose": [MAGNITUDE, {"kind": "scale", "k": 2, "lo": 0, "hi": 0.5}]},
                "not inside outer domain",
            ),
            (
                {"compose": [MAGNITUDE, {"kind": "quantizer", "edges": [0, 0.5, 1]}]},
                "all-injective",
            ),
        ],
        ids=[
            "sigma 0",
            "sigma nan",
            "M 0",
            "M inf",
            "lump-check on a quantizer",
            "compose range outside the outer domain",
            "compose with a quantizer",
        ],
    )
    def test_bad_parameter_exits_2(self, capsys, tmp_path, argv, message):
        if isinstance(argv, dict):  # a function to lump-check on the walk
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"process": self.WALK, "function": argv}))
            argv = ["lump-check", "--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_well_typed_function_specs_parse(self):
        from inforate.config import parse_config

        for function in (
            {"kind": "shift_mod", "period": 0.5, "offset": 0.25, "lo": -1, "hi": 1},
            {"kind": "scale", "k": 2, "lo": -1.0, "hi": 1.0},
            {"kind": "quantizer", "edges": [-1, 0.0, 1]},
            {"compose": [{"kind": "magnitude"}, {"kind": "square"}]},
        ):
            text = json.dumps({"process": self.WALK, "function": function})
            assert parse_config(text).function.domain_lo == -1.0

    UNREAD = {
        "cyclic-sweep": ("--seed", "--samples", "--bins"),
        "tightness": ("--seed", "--samples", "--bins"),
        "downsample": ("--seed", "--samples", "--bins", "--quad-tol", "--grid"),
        "lump-check": ("--seed", "--samples", "--bins", "--quad-tol"),
    }
    VALID = {
        "--seed": "1",
        "--samples": "2000",
        "--bins": "10",
        "--quad-tol": "1e-9",
        "--grid": "101",
    }

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in UNREAD.items() for flag in flags],
    )
    def test_flag_the_command_does_not_read_exits_2(
        self, capsys, tmp_path, command, flag
    ):
        cfg = tmp_path / "c.json"
        spec = {"process": self.AR1, "function": {"kind": "magnitude"}}
        cfg.write_text(json.dumps(spec))
        args = {
            "cyclic-sweep": ["--ratios", "0.5"],
            "tightness": [],
            "downsample": ["--M", "2", "--blocks", "2"],
            "lump-check": ["--config", str(cfg), "--grid", "101"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, flag, self.VALID[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_too_few_samples_for_the_block_order_exits_2(self, capsys, tmp_path):
        # 2 branches at order 5 need 2**6 * 30 = 1920 samples
        code, out, err = self.analyze(
            capsys, tmp_path, estimation={"samples": 1000, "block_order": 5}
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "samples" in err
        assert len(err.strip().splitlines()) == 1

    def test_well_typed_estimation_fields_parse(self):
        from inforate.config import parse_config

        spec = parse_config(
            json.dumps(
                {
                    "process": self.AR1,
                    "function": {"kind": "magnitude"},
                    "estimation": {"bins": None, "quad_tol": 1, "samples": 5000},
                }
            )
        )
        assert spec.estimation.bins is None
        assert spec.estimation.quad_cfg.abs_tol == 1
        assert spec.estimation.samples == 5000

    def test_out_of_range_process_parameter_exits_2(self, capsys, tmp_path):
        process = {"kind": "ar1", "a": 2, "sigma": 1.0}
        code, out, err = self.analyze(capsys, tmp_path, process=process)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "pole" in err
        assert len(err.strip().splitlines()) == 1

    def test_process_kind_that_is_not_a_string_exits_2(self, capsys, tmp_path):
        process = {"kind": ["ar1"], "a": 0.5, "sigma": 1.0}
        code, out, err = self.analyze(capsys, tmp_path, process=process)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown process kind")

    def test_boolean_process_parameter_exits_2(self, capsys, tmp_path):
        process = {"kind": "ar1", "a": True, "sigma": 1.0}
        code, out, err = self.analyze(capsys, tmp_path, process=process)
        assert code == 2
        assert out == ""
        assert "'a' must be numeric" in err


class TestReproducibility:
    def test_sweep_rerun_is_bit_identical(self, capsys):
        args = (
            "ar1-sweep",
            "--a-values",
            "0.5",
            "--samples",
            "50000",
            "--seed",
            "7",
            "--grid",
            "101",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file_with_metadata(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "downsample",
            "--M",
            "2",
            "--blocks",
            "4",
            "--out",
            str(target),
        )
        assert code == 0
        header, rows = parse_csv(target.read_text())
        assert header[0] == "n"
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["M"] == 2
        assert meta["version"]
        assert "backend" not in meta

    def test_metadata_records_the_parsed_command_line(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        argv = ["downsample", "--M", "2", "--blocks", "4", "--out", str(target)]
        assert run_cli(capsys, *argv)[0] == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["command"] == " ".join(argv)

    def test_metadata_lands_on_stderr(self, capsys):
        _, out, err = run_cli(capsys, "downsample", "--M", "2", "--blocks", "2")
        meta = json.loads(err.strip().splitlines()[-1])
        assert meta["M"] == 2
        # stdout stays pure CSV
        parse_csv(out)
