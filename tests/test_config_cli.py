import math
from dataclasses import replace
import time
from fractions import Fraction

import numpy as np
import pytest

import finprob as fp
from finprob.cli import main
from finprob.config import EXPERIMENTS, ExperimentConfig, demo_config, load_config, resolve_output, validate_config
from finprob.experiments import ExperimentResult, _fmt, run, run_experiment, write_csv
from finprob.numerics import float_mode, rational_mode

from .oracles import csv_by_rows


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD = """
[experiment]
name = levy-up
seed = 3
mode = rational
horizon = 32
n = 2

[sizes]
levels = 4
count = 2
"""


class TestConfigParsing:
    def test_well_formed(self, tmp_path):
        cfg = load_config(write(tmp_path, GOOD))
        assert cfg.experiment == "levy-up"
        assert cfg.seed == 3
        assert cfg.mode.exact
        assert cfg.norm_index == 2
        assert cfg.levels == 4

    def test_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = noncauchy-l1\n"))
        assert cfg.seed == 0
        assert cfg.mode.exact
        assert validate_config(cfg) == []

    def test_norm_index_inf(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = levy-up\nn = inf\n"))
        assert cfg.norm_index == math.inf

    def test_unknown_experiment_suggests(self, tmp_path):
        with pytest.raises(fp.ConfigError) as err:
            load_config(write(tmp_path, "[experiment]\nname = levyup\n"))
        assert "did you mean" in str(err.value)
        assert "levy-up" in str(err.value)

    def test_negative_tolerance_rejected(self, tmp_path):
        text = "[experiment]\nname = levy-up\nmode = float\ntolerance = -1\n"
        with pytest.raises(fp.ConfigParseError) as err:
            load_config(write(tmp_path, text))
        assert "tolerance" in str(err.value)

    def test_tolerance_forbidden_in_rational(self, tmp_path):
        text = "[experiment]\nname = levy-up\nmode = rational\ntolerance = 1e-9\n"
        with pytest.raises(fp.ConfigParseError):
            load_config(write(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(fp.ConfigParseError):
            load_config(write(tmp_path, "[experiment]\nname = levy-up\nfoo = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(fp.ConfigParseError):
            load_config(write(tmp_path, "[experiment]\nname = levy-up\n[extra]\na = 1\n"))

    def test_parse_error_reports_location(self, tmp_path):
        with pytest.raises(fp.ConfigParseError):
            load_config(write(tmp_path, "not an ini line\n"))

    def test_bad_size_value(self, tmp_path):
        with pytest.raises(fp.ConfigParseError) as err:
            load_config(write(tmp_path, "[experiment]\nname = levy-up\n[sizes]\nlevels = ten\n"))
        assert "levels" in str(err.value)

    def test_dim_is_an_unknown_key(self, tmp_path):
        path = write(tmp_path, "[experiment]\nname = levy-up\n[sizes]\ndim = 3\n")
        with pytest.raises(fp.ConfigParseError, match="unknown key 'dim' in \\[sizes\\]"):
            load_config(path)
        assert main(["validate", str(path)]) == 2

    def test_galois_size_cap(self, tmp_path):
        text = "[experiment]\nname = galois-audit\n[sizes]\nsize = 9\n"
        with pytest.raises(fp.ConfigError):
            load_config(write(tmp_path, text))


class TestCostCaps:
    @pytest.mark.parametrize(
        "name, sizes",
        [
            ("levy-up", "levels = 40"),
            ("levy-down", "size = 5000"),
            ("levi-kernel", "size = 1000"),
            ("banach-counterexample", "size = 2000"),
            ("galois-audit", "count = 100000"),
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, name, sizes):
        path = write(tmp_path, f"[experiment]\nname = {name}\noutput = out.csv\n[sizes]\n{sizes}\n")
        with pytest.raises(fp.ConfigError) as err:
            load_config(path)
        assert sizes.split()[0] in str(err.value)
        assert main(["run", str(path), "--outdir", str(tmp_path)]) == 2
        assert main(["validate", str(path)]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_norm_index_cap(self, tmp_path):
        path = write(tmp_path, "[experiment]\nname = levy-down\nn = 257\noutput = out.csv\n")
        with pytest.raises(fp.ConfigError, match="norm index must be at most 256"):
            load_config(path)
        assert main(["run", str(path), "--outdir", str(tmp_path)]) == 2
        assert main(["validate", str(path)]) == 2
        assert not (tmp_path / "out.csv").exists()
        for n in (256, math.inf):
            assert validate_config(ExperimentConfig(experiment="levy-down", norm_index=n)) == []

    def test_horizon_cap(self):
        with pytest.raises(fp.ConfigError):
            ExperimentConfig(experiment="homeo-audit", horizon=100_000)

    @pytest.mark.parametrize(
        "name, sizes",
        [
            ("levy-up", dict(levels=12)),
            ("levy-down", dict(size=256, length=64)),
            ("levi-kernel", dict(size=160, length=12)),
            ("banach-counterexample", dict(size=160)),
            ("levi-hilbert", dict(size=40, length=40)),
            ("galois-audit", dict(size=8, count=4)),
            ("homeo-audit", dict(size=4, count=200, horizon=40)),
        ],
    )
    def test_largest_benchmark_sizes_accepted(self, name, sizes):
        assert validate_config(ExperimentConfig(experiment=name, **sizes)) == []

    def test_banach_at_the_global_size_cap(self, tmp_path):
        cfg = ExperimentConfig(experiment="banach-counterexample", size=1024, mode=fp.float_mode())
        started = time.perf_counter()
        code, _, verdict = run(cfg, outdir=str(tmp_path))
        assert time.perf_counter() - started < 2.0
        assert (code, verdict) == (0, "STABILIZED")


class TestOutputResolution:
    def test_default_name(self):
        cfg = demo_config("levy-up")
        assert resolve_output(cfg).name == "levy_up.csv"

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINPROB_OUTDIR", str(tmp_path / "outs"))
        cfg = demo_config("levy-up")
        assert str(resolve_output(cfg)).startswith(str(tmp_path / "outs"))

    def test_outdir_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINPROB_OUTDIR", "/nope")
        cfg = demo_config("levy-up")
        assert str(resolve_output(cfg, str(tmp_path))).startswith(str(tmp_path))


class TestExperiments:
    def test_every_experiment_has_a_runner(self):
        from finprob.config import EXPERIMENTS
        from finprob.experiments import _RUNNERS

        assert tuple(_RUNNERS) == EXPERIMENTS

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("levy-up", "CONVERGED"),
            ("levy-down", "CONVERGED"),
            ("levi-kernel", "CONVERGED"),
            ("levi-hilbert", "CONVERGED"),
            ("noncauchy-l1", "STABILIZED-NONCAUCHY"),
            ("banach-counterexample", "STABILIZED"),
            ("galois-audit", "PASS"),
            ("homeo-audit", "PASS"),
        ],
    )
    def test_demo_verdicts(self, name, expected, tmp_path):
        cfg = demo_config(name)
        code, path, verdict = run(cfg, outdir=str(tmp_path))
        assert verdict == expected
        assert code == 0
        text = path.read_text()
        lines = text.splitlines()
        assert "," in lines[0]  # header row
        assert lines[-1].startswith("# verdict:")
        assert any(line.startswith("# exercises:") for line in lines)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_result_columns_are_immutable(self, name):
        result = run_experiment(demo_config(name))
        assert isinstance(result.cells, tuple)
        assert all(isinstance(column, (tuple, range)) for column in result.cells)

    def test_levy_up_row_count_and_final_zero(self, tmp_path):
        cfg = demo_config("levy-up")
        result = run_experiment(cfg)
        assert len(result.rows) == cfg.levels + 1
        final = result.rows[-1]
        assert final[1] == cfg.levels and final[2] == 0

    def test_galois_demo_covers_all_52_partitions(self):
        result = run_experiment(demo_config("galois-audit"))
        assert result.rows[0][1] == 52

    def test_rational_rerun_byte_identical(self, tmp_path):
        for name in ("levy-up", "noncauchy-l1", "galois-audit"):
            cfg = demo_config(name)
            _, path1, _ = run(cfg, outdir=str(tmp_path / "a"))
            _, path2, _ = run(cfg, outdir=str(tmp_path / "b"))
            assert path1.read_bytes() == path2.read_bytes()

    def test_float_rerun_same_verdict(self, tmp_path):
        cfg = demo_config("homeo-audit")
        _, p1, v1 = run(cfg, outdir=str(tmp_path / "a"))
        _, p2, v2 = run(cfg, outdir=str(tmp_path / "b"))
        assert v1 == v2
        assert p1.read_bytes() == p2.read_bytes()


MODES = pytest.mark.parametrize("mode", [float_mode(), rational_mode()], ids=["float", "rational"])


class TestCsvCells:
    CELLS = [
        (True, "True"),
        (False, "False"),
        (0, "0"),
        (-7, "-7"),
        (2**70, "1180591620717411303424"),
        ("euclidean", "euclidean"),
        ("", ""),
        (0.1, "0.1"),
        (-2.5e-300, "-2.5e-300"),
        (1e16, "1e+16"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (np.float64(0.1), "0.1"),
        (np.float64(math.inf), "inf"),
        (np.float64(-math.inf), "-inf"),
        (np.int64(3), "3.0"),
        (Fraction(-2, 6), "-1/3"),
        (Fraction(4), "4"),
    ]

    @MODES
    def test_cell_strings(self, mode):
        cfg = ExperimentConfig("levi-hilbert", mode=mode)
        assert [_fmt(v, cfg) for v, _ in self.CELLS] == [text for _, text in self.CELLS]


class TestColumnWriter:
    """`write_csv` formats a column at a time; `oracles.csv_by_rows`, the
    row writer it replaced, gives the bytes it must write."""

    @staticmethod
    def same_bytes(tmp_path, columns, cells, mode):
        cfg = ExperimentConfig("levi-hilbert", mode=mode)
        result = ExperimentResult(tuple(columns), tuple(cells), "PASS", "a footer")
        write_csv(result, tmp_path / "table.csv", cfg)
        assert (tmp_path / "table.csv").read_bytes() == csv_by_rows(result, cfg)

    VALUES = [v for v, _ in TestCsvCells.CELLS] + [-0.0, 1, "a,b", 'say "x"', "two\nlines", "cr\r"]

    @MODES
    def test_every_cell_value_as_a_whole_column(self, tmp_path, mode):
        for value in self.VALUES:
            self.same_bytes(tmp_path, ("v", "w"), ([value] * 3, range(3)), mode)
            self.same_bytes(tmp_path, ("v",), ([value] * 3,), mode)

    @MODES
    def test_mixed_columns(self, tmp_path, mode):
        values = self.VALUES
        self.same_bytes(tmp_path, ("a", "b"), (values, values[::-1]), mode)
        for i, a in enumerate(values):  # every pair of values, in one column
            for b in values[i + 1:]:
                self.same_bytes(tmp_path, ("pair", "i"), ([a, b, a], [0, 1, 2]), mode)
        self.same_bytes(tmp_path, ("signed zeros",), ([0.0, -0.0, 0.0, math.nan, -0.0],), mode)
        self.same_bytes(tmp_path, ("equal ints and bools",), ([1, True, 0, False, 1.0],), mode)

    @MODES
    def test_numpy_columns(self, tmp_path, mode):
        floats = np.array([0.1, -2.5e-300, 1e16, math.inf, -math.inf, math.nan, -0.0])
        ints, bools = np.arange(-3, 4), np.array([True, False, True, True, False, False, True])
        columns = (floats, floats.astype(np.float32), ints, bools)
        self.same_bytes(tmp_path, ("f64", "f32", "i64", "bool"), columns, mode)
        self.same_bytes(tmp_path, ("f64", "i64", "bool"), (list(floats), list(ints), list(bools)), mode)

    @MODES
    def test_quoted_text(self, tmp_path, mode):
        texts = ["a,b", 'say "x"', "two\nlines", "", "plain", ",", '"']
        self.same_bytes(tmp_path, ("text", "n"), (texts, range(len(texts))), mode)
        self.same_bytes(tmp_path, ('na"me', "a,b"), (texts, texts[::-1]), mode)

    @MODES
    def test_empty_tables_and_lone_empty_cells(self, tmp_path, mode):
        self.same_bytes(tmp_path, ("a", "b"), ([], []), mode)
        self.same_bytes(tmp_path, ("a",), ([],), mode)
        self.same_bytes(tmp_path, ("a",), ([""],), mode)
        self.same_bytes(tmp_path, ("",), (["", "x", ""],), mode)
        self.same_bytes(tmp_path, ("a", "b"), ([""], [""]), mode)

    def test_more_rows_than_one_block(self, tmp_path):
        steps = list(range(2500))
        self.same_bytes(tmp_path, ("step", "x"), (steps, [t / 7 for t in steps]), float_mode())

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_demo_table(self, name, tmp_path):
        for cfg in (demo_config(name), replace(demo_config(name), mode=float_mode())):
            result = run_experiment(cfg)
            write_csv(result, tmp_path / "demo.csv", cfg)
            assert (tmp_path / "demo.csv").read_bytes() == csv_by_rows(result, cfg)


class TestTerminalRvInput:
    def test_levy_up_consumes_serialized_rv(self, tmp_path):
        from fractions import Fraction as F

        import finprob as fp
        from finprob import serialize

        space = fp.dyadic_space(3)
        rv = fp.RandomVar([F(i, 7) for i in range(8)], space)
        serialize.dump(rv, tmp_path / "rv.txt")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[experiment]\nname = levy-up\nmode = rational\nn = 2\n"
            f"input = {tmp_path / 'rv.txt'}\n[sizes]\nlevels = 3\n"
        )
        code, path, verdict = run(load_config(cfg_path), outdir=str(tmp_path))
        assert code == 0 and verdict == "CONVERGED"
        lines = path.read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4 levels
        assert lines[-3].split(",")[2] == "0"  # exact zero at the last level

    def test_wrong_size_rejected(self, tmp_path):
        from fractions import Fraction as F

        import finprob as fp
        from finprob import serialize

        rv = fp.RandomVar([F(1)], fp.point_space(fp.rational_mode()))
        serialize.dump(rv, tmp_path / "rv.txt")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[experiment]\nname = levy-up\nmode = rational\n"
            f"input = {tmp_path / 'rv.txt'}\n[sizes]\nlevels = 3\n"
        )
        with pytest.raises(fp.ConfigError):
            run(load_config(cfg_path), outdir=str(tmp_path))

    @pytest.mark.parametrize(
        "name, mode, text, message",
        [
            ("weights.txt", "rational", "rv\nmode rational\nweights 1/2 1/3\nvalues 1 2\n",
             "weights sum to 5/6"),
            ("nan.txt", "float", "rv\nmode float 1e-09\nweights 0.5 0.5\nvalues nan 1.0\n", "nan"),
            ("nan-weight.txt", "float", "rv\nmode float 1e-09\nweights nan 1\nvalues 1.0 2.0\n", "weight 0 is nan"),
            ("absent.txt", "rational", None, "No such file"),
            ("accent.txt", "rational", "rv\nmode rational\n# caf\u00e9\nweights 1/2 1/2\nvalues 1 2\n",
             "ascii"),
            ("tolerance.txt", "float", "rv\nmode float x\nweights 0.5 0.5\nvalues 1.0 2.0\n",
             "bad mode line: 'float x'"),
            ("junk.txt", "float", "rv\nmode float 1e-09 junk\nweights 0.5 0.5\nvalues 1.0 2.0\n",
             "bad mode line: 'float 1e-09 junk'"),
        ],
        ids=["bad-weights", "nan-value", "nan-weight", "missing-file", "non-ascii", "bad-tolerance", "extra-token"],
    )
    def test_bad_input_file_is_a_config_error(self, tmp_path, capsys, name, mode, text, message):
        rv_path = tmp_path / name
        if text is not None:
            rv_path.write_text(text, encoding="utf-8")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[experiment]\nname = levy-up\nmode = {mode}\noutput = out.csv\n"
            f"input = {rv_path}\n[sizes]\nlevels = 1\n"
        )
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and message in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "experiment, sizes", [("levy-up", "levels = 1"), ("levy-down", "size = 2\nlength = 2")]
    )
    def test_vector_input_file_is_a_config_error(self, tmp_path, capsys, experiment, sizes):
        from finprob import serialize

        rv_path = tmp_path / "vec.txt"
        serialize.dump(fp.VecRandomVar([[1, 2], [3, 4]], fp.uniform_space(2, rational_mode())), rv_path)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[experiment]\nname = {experiment}\nmode = rational\noutput = out.csv\n"
            f"input = {rv_path}\n[sizes]\n{sizes}\n"
        )
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "vec.txt" in err
        assert not (tmp_path / "out.csv").exists()

    def test_input_only_for_levy(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[experiment]\nname = galois-audit\ninput = rv.txt\n")
        with pytest.raises(fp.ConfigError):
            load_config(cfg_path)


class TestCliEntryPoint:
    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[experiment]\nname = noncauchy-l1\noutput = out.csv\n[sizes]\nlevels = 4\n"
        )
        code = main(["run", str(path), "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "STABILIZED-NONCAUCHY" in out
        assert (tmp_path / "out.csv").exists()

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nname = levy-up\n")
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nname = levy-up\nmode = float\ntolerance = 0\n")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "1e400", "-inf"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_tolerance_is_exit_2(self, tmp_path, capsys, command, tolerance):
        # nan used to end with exit 1, and inf made every float check pass
        path = tmp_path / "cfg.ini"
        path.write_text(f"[experiment]\nname = levy-up\nmode = float\ntolerance = {tolerance}\n")
        outdir = ["--outdir", str(tmp_path)] if command == "run" else []
        assert main([command, str(path), *outdir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: field 'tolerance': expected a finite positive number, got {tolerance!r}\n"
        )

    def test_demo_subcommand(self, tmp_path, capsys):
        code = main(["demo", "banach-counterexample", "--outdir", str(tmp_path)])
        assert code == 0
        assert "STABILIZED" in capsys.readouterr().out

    def test_demo_unknown_name(self, capsys):
        code = main(["demo", "levyup"])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_unwritable_outdir_is_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["demo", "noncauchy-l1", "--outdir", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("io error: ")
