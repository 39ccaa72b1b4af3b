import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

import ineqstats
from conftest import WRI_FIXTURE, fifo_holding, quoted_crlf
from ineqstats import (IneqStatsError, SimulationConfig, TwoClassModel,
                       sample_income_table)
from ineqstats.cli import build_parser, dispatch
from ineqstats.io import build_config, json_object, write_csv


def run_module(*argv):
    """``python -m ineqstats.cli`` in a fresh interpreter, on this package."""
    src = Path(ineqstats.__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "ineqstats.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def read(path):
    return path.read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestSimulate:
    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        args = ["simulate", "--agents", "400", "--money", "20000",
                "--steps", "200000", "--rule", "uniform", "--seed", "7",
                "--checkpoint-every", "50000"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        for name in ("trajectory.csv", "histogram.csv"):
            assert read(out1 / name) == read(out2 / name)
        rows = (out1 / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0] == "step,entropy,temperature"
        assert len(rows) > 3

    def test_manifests_identical_except_timestamp(self, tmp_path):
        args = ["simulate", "--agents", "100", "--money", "5000",
                "--steps", "10000", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        dispatch(args + ["--out", str(out1)])
        dispatch(args + ["--out", str(out2)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_utc")
        m2.pop("created_utc")
        assert m1 == m2
        assert m1["config"]["n_agents"] == 100
        assert set(m1["outputs"]) == {"trajectory.csv", "histogram.csv",
                                      "config.json"}

    def test_config_file_equivalent_to_flags(self, tmp_path):
        flags = ["simulate", "--agents", "300", "--money", "15000",
                 "--steps", "60000", "--rule", "uniform", "--seed", "21",
                 "--checkpoint-every", "20000"]
        out1 = tmp_path / "flags"
        assert dispatch(flags + ["--out", str(out1)]) == 0
        config_path = out1 / "config.json"
        assert config_path.exists()
        out2 = tmp_path / "conf"
        assert dispatch(["simulate", "--config", str(config_path),
                         "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "histogram.csv", "config.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_missing_flags_usage_error(self, tmp_path):
        code = dispatch(["simulate", "--agents", "10",
                         "--out", str(tmp_path / "x")])
        assert code == 2

    def test_coupled_mode_writes_flux(self, tmp_path):
        out = tmp_path / "c"
        code = dispatch(["simulate", "--agents", "300", "--money", "30000",
                         "--agents2", "300", "--money2", "15000",
                         "--steps", "30000", "--events", "2000",
                         "--migration-rate", "0.0", "--seed", "5",
                         "--out", str(out)])
        assert code == 0
        flux = json.loads((out / "flux.json").read_text())
        assert flux["delta_money"] > 0
        assert (out / "histogram1.csv").exists()
        assert (out / "histogram2.csv").exists()

    def test_coupled_config_file_equivalent_to_flags(self, tmp_path):
        out1 = tmp_path / "flags"
        assert dispatch(["simulate", "--agents", "200", "--money", "20000",
                         "--agents2", "150", "--money2", "6000", "--steps", "20000",
                         "--rule", "fixed", "--delta", "3", "--floor", "-5",
                         "--migration-rate", "0.25", "--seed", "8",
                         "--out", str(out1)]) == 0
        out2 = tmp_path / "conf"
        assert dispatch(["simulate", "--config", str(out1 / "config.json"),
                         "--out", str(out2)]) == 0
        for name in ("flux.json", "histogram1.csv", "histogram2.csv", "config.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_coupled_manifest_holds_config_in_effect(self, tmp_path):
        out = tmp_path / "c"
        assert dispatch(["simulate", "--agents", "100", "--money", "5000",
                         "--agents2", "100", "--money2", "2000", "--steps", "5000",
                         "--seed", "4", "--out", str(out)]) == 0
        written = json.loads((out / "config.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == written
        assert written["delta"] == 100   # 2 * M/N of system 1, uniform rule
        assert written["events"] == 1000 and written["migration_rate"] == 0.0
        assert not {"quantum_value", "checkpoint_every", "out", "config"} & written.keys()
        assert set(manifest["outputs"]) == {"flux.json", "histogram1.csv",
                                            "histogram2.csv", "config.json"}


class TestFp:
    def test_additive_solution(self, tmp_path):
        out = tmp_path / "fp"
        code = dispatch(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "r,density"
        spec = json.loads((out / "spec.json").read_text())
        assert spec == {"a0": 1.0, "b0": 40.0, "kind": "additive"}

    def test_spec_json_round_trip(self, tmp_path):
        out1 = tmp_path / "direct"
        dispatch(["fp", "--kind", "combined", "--a0", "500", "--a", "1",
                  "--b0", "20000", "--b", "2", "--out", str(out1)])
        out2 = tmp_path / "fromjson"
        code = dispatch(["fp", "--spec-json", str(out1 / "spec.json"),
                         "--out", str(out2)])
        assert code == 0
        assert read(out1 / "solution.csv") == read(out2 / "solution.csv")

    def test_manifest_holds_grid_defaults(self, tmp_path):
        out = tmp_path / "fp"
        assert dispatch(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                         "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"kind": "additive", "a0": 1.0, "a": None, "b0": 40.0, "b": None,
                          "r_max": None, "r_min": 0.0, "points_per_decade": 2000}

    def test_domain_error_exit_code(self, tmp_path):
        code = dispatch(["fp", "--kind", "additive", "--a0", "-1", "--b0", "40",
                         "--out", str(tmp_path / "x")])
        assert code == 1


@pytest.fixture(scope="module")
def income_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "irs2007.csv"
    model = TwoClassModel(48.0, 1.34, 113.0)
    rng = np.random.default_rng(20260808)
    table = sample_income_table(model, 100_000, rng, n_levels=50)
    comp = table.counts[::-1].cumsum()[::-1]
    write_csv(path, ("level_kusd", "returns_at_or_above"), (table.levels, comp))
    return path


class TestFitIncome:
    def test_report_fields_populated(self, tmp_path, income_csv, capsys):
        out = tmp_path / "fit"
        code = dispatch(["fit-income", "--input", str(income_csv),
                         "--year", "2007", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("temperature", "alpha", "r0", "r_star", "tail_fraction",
                    "gini", "mean_income", "residual"):
            assert report[key] is not None
        assert (out / "lorenz.csv").exists()
        printed = capsys.readouterr().out
        assert "T=" in printed and "G=" in printed
        config = json.loads((out / "manifest.json").read_text())["config"]
        # the config in effect: the flags given, and the library's defaults
        assert config == {"input": str(income_csv), "mode": "at-or-above", "year": 2007,
                          "exp_window": [0.1, 0.95], "tail_window": [0.001, 0.03],
                          "refine": True}

    def test_tail_less_table_keeps_alpha_above_one(self, tmp_path):
        # a seeded table on which the search in ln(alpha - 1) runs so low
        # that alpha would round to 1.0
        rng = np.random.default_rng(27)
        levels = np.linspace(0.0, 4.75 * 171.0, 42)
        comp = np.exp(-levels / 171.0)
        counts = rng.poisson(80624 * np.append(comp[:-1] - comp[1:], comp[-1]))
        table = tmp_path / "table.csv"
        write_csv(table, ("level_kusd", "returns_in_bin"), (levels, counts))
        out = tmp_path / "fit"
        code = dispatch(["fit-income", "--input", str(table), "--mode", "in-bin",
                         "--out", str(out)])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["alpha"] > 1.0

    def test_missing_file_exit_code(self, tmp_path):
        code = dispatch(["fit-income", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_runs_in_one_process_match_a_fresh_process(self, tmp_path, income_csv):
        # dispatch reuses one parser, so a flag given to one run must not
        # reach the next: the staged-only run leaves the second refined
        base = ["fit-income", "--input", str(income_csv), "--year", "2007", "--out"]
        assert dispatch(base + [str(tmp_path / "staged"), "--no-refine"]) == 0
        assert dispatch(base + [str(tmp_path / "same")]) == 0
        fresh = run_module(*base, str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr
        report = (tmp_path / "same" / "report.json").read_text()
        assert json.loads(report)["refined"] is True
        assert not json.loads((tmp_path / "staged" / "report.json").read_text())["refined"]
        assert report == (tmp_path / "fresh" / "report.json").read_text()


class TestEnergy:
    def test_summary_world_average_matches_oracle(self, tmp_path):
        e, p = WRI_FIXTURE
        out = tmp_path / "energy"
        code = dispatch(["energy", "--energy", str(e), "--population", str(p),
                         "--year", "2005", "--per-capita", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        # independent weighted mean from the raw CSV rows
        num = den = 0.0
        eps = {}
        for line in e.read_text().strip().splitlines()[1:]:
            country, year, value = line.split(",")
            if int(year) == 2005:
                eps[country] = float(value)
        for line in p.read_text().strip().splitlines()[1:]:
            country, year, value = line.split(",")
            if int(year) == 2005:
                num += eps[country] * float(value)
                den += float(value)
        assert summary["world_avg_kw"] == pytest.approx(num / den, rel=1e-12)
        assert summary["countries"] == 22
        assert 0 < summary["gini"] < 1
        assert (out / "cdf.csv").read_text().startswith("epsilon_kw,C")
        assert (out / "lorenz.csv").read_text().startswith("x,y")

    def test_manifest_digests_inputs(self, tmp_path):
        e, p = WRI_FIXTURE
        out = tmp_path / "m"
        dispatch(["energy", "--energy", str(e), "--population", str(p),
                  "--year", "1990", "--per-capita", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(e) in manifest["inputs"]
        from ineqstats.io import sha256_file
        assert manifest["inputs"][str(e)] == sha256_file(e)
        assert manifest["config"] == {"energy": str(e), "population": str(p),
                                      "year": 1990, "per_capita": True}

    def test_non_finite_cells_dropped(self, tmp_path):
        e, p = tmp_path / "e.csv", tmp_path / "p.csv"
        e.write_text("country,year,value\nA,2005,1\nB,2005,nan\nC,2005,inf\n"
                     "D,2005,4\nE,2005,2\nF,2005,3\n")
        p.write_text("country,year,value\nA,2005,10\nB,2005,10\nC,2005,10\n"
                     "D,2005,nan\nE,2005,20\nF,2005,30\n")
        out = tmp_path / "o"
        code = dispatch(["energy", "--energy", str(e), "--population", str(p),
                         "--year", "2005", "--per-capita", "--out", str(out)])
        assert code == 0

        def refuse(constant):
            raise AssertionError(f"{constant} in summary.json")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["countries"] == 3
        assert summary["world_avg_kw"] == pytest.approx((10 + 40 + 90) / 60)
        assert "nan" not in (out / "cdf.csv").read_text()
        assert "inf" not in (out / "cdf.csv").read_text()

    def test_empty_join_exit_code(self, tmp_path):
        e = tmp_path / "e.csv"
        p = tmp_path / "p.csv"
        e.write_text("country,year,value\nA,2005,1\n")
        p.write_text("country,year,value\nB,2005,1\n")
        code = dispatch(["energy", "--energy", str(e), "--population", str(p),
                         "--year", "2005", "--out", str(tmp_path / "o")])
        assert code == 1


class TestUsage:
    def test_unknown_flag_exit_2(self):
        assert dispatch(["simulate", "--bogus", "1"]) == 2

    def test_unknown_subcommand_exit_2(self):
        assert dispatch(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_module_entry_runs(self, tmp_path):
        # `python -m ineqstats.cli` must run main(), as the console script does
        done = run_module("fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                          "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "solution.csv").exists()
        assert run_module("frobnicate").returncode == 2


# Bad inputs from the command line; each must end in exit 1 with one
# `error:` line.
REJECTED = [
    pytest.param(["simulate", "--agents", "20", "--money", "20", "--steps", "100",
                  "--seed", "1", "--agents2", "20", "--money2", "20",
                  "--floor", "-20", "--migration-rate", "0.5", "--events", "20000"],
                 id="coupled-zero-temperature"),
    pytest.param(["simulate", "--agents", "10", "--money", "10", "--steps", "100",
                  "--seed", "2", "--agents2", "10", "--money2", "10",
                  "--floor", "-30", "--migration-rate", "0.5", "--events", "50000"],
                 id="coupled-negative-temperature"),
    pytest.param(["simulate", "--agents", "300", "--money", "30000",
                  "--agents2", "300", "--money2", "15000", "--steps", "300",
                  "--seed", "5", "--quantum-value", "0"],
                 id="coupled-quantum-value-0"),
    pytest.param(["simulate", "--agents", "10", "--money", "100", "--steps", "100",
                  "--seed", "1", "--checkpoint-every", "-5"],
                 id="checkpoint-every-negative"),
    pytest.param(["simulate", "--agents", "10", "--money", "1000", "--steps", "200",
                  "--seed", "1", "--quantum-value", "1e308"],
                 id="quantum-value-overflows-outputs"),
    pytest.param(["simulate", "--agents", "0", "--money", "10", "--steps", "10",
                  "--seed", "1"], id="zero-agents"),
    pytest.param(["simulate", "--agents", "10", "--money", "10", "--steps", "10",
                  "--seed", "-1"], id="negative-seed"),
    # integers beyond 64-bit balances
    pytest.param(["simulate", "--agents", "3", "--money", "9", "--steps", "5",
                  "--seed", "1", "--delta", "99999999999999999999999"],
                 id="delta-beyond-int64"),
    pytest.param(["simulate", "--agents", "3", "--money", "99999999999999999999999",
                  "--steps", "5", "--seed", "1"], id="money-beyond-int64"),
    pytest.param(["simulate", "--agents", "3", "--money", "9", "--steps", "5",
                  "--seed", "1", "--floor", "-99999999999999999999999"],
                 id="floor-beyond-int64"),
    pytest.param(["simulate", "--agents", "4", "--money", "9223372036854775000",
                  "--steps", "5", "--seed", "1", "--rule", "fixed", "--delta", "3"],
                 id="histogram-too-big"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--points-per-decade", "0"], id="points-per-decade-0"),
    # sizes above the documented ceilings, and far above any host's memory
    pytest.param(["simulate", "--agents", "1000000000000", "--money", "10", "--steps", "1",
                  "--seed", "1"], id="agents-above-ceiling"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--points-per-decade", "1000000000000"],
                 id="points-per-decade-above-ceiling"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--r-max", "1e308"], id="r-max-overflows-grid"),
    pytest.param(["fp", "--kind", "multiplicative", "--a", "1", "--b", "1",
                  "--r-min", "1e6", "--r-max", "100"], id="r-min-above-r-max"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--a", "5"], id="coefficient-outside-kind"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--r-min", "5"], id="r-min-outside-multiplicative"),
    pytest.param(["fit-income", "--input", "{tmp}"], id="input-is-a-directory"),
    # {latin1} is a file holding the byte 0xE9, which is not UTF-8
    pytest.param(["fit-income", "--input", "{latin1}"], id="fit-income-not-utf8"),
    pytest.param(["energy", "--energy", "{latin1}", "--population", "{latin1}",
                  "--year", "2005"], id="energy-not-utf8"),
    pytest.param(["simulate", "--config", "{latin1}"], id="config-not-utf8"),
    pytest.param(["fp", "--spec-json", "{latin1}"], id="spec-json-not-utf8"),
    # flags away from their default that the chosen mode would not read;
    # {config} and {spec} are valid config files
    pytest.param(["simulate", "--config", "{config}", "--agents", "5", "--steps", "3"],
                 id="config-with-run-flags"),
    pytest.param(["simulate", "--agents", "10", "--money", "100", "--steps", "100",
                  "--seed", "1", "--events", "5", "--migration-rate", "0.5"],
                 id="coupling-flags-without-second-system"),
    pytest.param(["simulate", "--agents", "30", "--money", "300", "--agents2", "30",
                  "--money2", "150", "--steps", "300", "--seed", "5",
                  "--quantum-value", "2.5", "--checkpoint-every", "7"],
                 id="coupled-with-single-system-flags"),
    pytest.param(["fp", "--spec-json", "{spec}", "--kind", "multiplicative", "--a", "5"],
                 id="spec-json-with-coefficient-flags"),
    # given flags are unread even at their default values
    pytest.param(["simulate", "--config", "{config}", "--rule", "uniform"],
                 id="config-with-default-rule"),
    pytest.param(["simulate", "--agents", "10", "--money", "100", "--steps", "100",
                  "--seed", "1", "--events", "1000"], id="default-events-without-second-system"),
    pytest.param(["fp", "--spec-json", "{spec}", "--kind", "additive"],
                 id="spec-json-with-default-kind"),
]


@pytest.mark.parametrize("argv", REJECTED)
def test_rejected_with_one_error_line(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"level_kusd,returns_at_or_above\n0,100\n10,50 caf\xe9\n")
    config = tmp_path / "config.json"
    config.write_text('{"n_agents": 10, "total_money_quanta": 100, "steps": 1000, '
                      '"seed": 1}')
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "additive", "a0": 1, "b0": 40}')
    paths = {"{tmp}": tmp_path, "{latin1}": latin1, "{config}": config, "{spec}": spec}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    code = dispatch(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["simulate", "--agents", "10"], 2, id="simulate-usage"),
    pytest.param(["simulate", "--agents", "10", "--money", "100", "--steps", "-5",
                  "--seed", "1"], 1, id="simulate-config"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40", "--r-min", "5"], 1,
                 id="fp"),
    pytest.param(["fit-income", "--input", "{table}"], 1, id="fit-income"),
    pytest.param(["energy", "--energy", "{table}", "--population", "{table}",
                  "--year", "2005"], 1, id="energy"),
])
def test_refused_run_leaves_no_output_directory(tmp_path, capsys, argv, expected):
    table = tmp_path / "table.csv"
    table.write_text("level_kusd,returns_at_or_above\n0,100\n10,50\n")
    out = tmp_path / "out"
    argv = [str(table) if arg == "{table}" else arg for arg in argv]
    assert dispatch(argv + ["--out", str(out)]) == expected
    assert not out.exists()


# Sizes just above the documented ceilings.  numpy's allocators for the
# two guarded arrays are replaced, so a missing ceiling fails the test
# instead of taking the host's memory.
@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--agents", "100000001", "--money", "10", "--steps", "1",
                  "--seed", "1"], id="agents"),
    pytest.param(["simulate", "--config", "{config}"], id="config-n-agents"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--points-per-decade", "1666667"], id="points-per-decade"),
])
def test_size_ceiling_refused_before_allocating(tmp_path, capsys, monkeypatch, argv):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated")

    config = tmp_path / "config.json"
    config.write_text('{"n_agents": 100000001, "total_money_quanta": 100, "steps": 1, '
                      '"seed": 1}')
    monkeypatch.setattr(np, "full", no_allocation)
    monkeypatch.setattr(np, "geomspace", no_allocation)
    argv = [str(config) if arg == "{config}" else arg for arg in argv]
    code = dispatch(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "exceed the ceiling" in err


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A real oversized allocation could take the host's memory, so the
    # pipeline entry point raises MemoryError instead.
    def exhausted(config):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr("ineqstats.cli.run_from_config", exhausted)
    code = dispatch(["simulate", "--agents", "10", "--money", "10", "--steps", "1",
                     "--seed", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"


# JSON documents for the two config-file inputs.  Numbers stay small so
# that a document which happens to be valid is a run of a few dozen
# exchange attempts or a default-sized grid.
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-50, 50)
            | st.sampled_from([math.nan, math.inf, -math.inf, "fixed", "uniform",
                               "additive", "multiplicative", "combined"])
            | st.text(alphabet="abfinux", max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _documents(flag_argv, required, optional, plausible):
    objects = (st.fixed_dictionaries({k: plausible | _VALUES for k in required},
                                     optional={k: plausible | _VALUES for k in optional})
               | st.dictionaries(st.sampled_from(required + optional), _VALUES))
    text = st.builds(json.dumps, objects | _VALUES) | st.text(max_size=12)
    return st.tuples(st.just(flag_argv), text)


_CONFIG_DOCUMENTS = (
    _documents(("simulate", "--config"),
               ["n_agents", "total_money_quanta", "steps", "seed"],
               ["rule", "delta", "floor", "quantum_value", "checkpoint_every"],
               st.integers(1, 40))
    | _documents(("simulate", "--config"),
                 ["n_agents", "total_money_quanta", "steps", "seed", "n_agents2",
                  "total_money_quanta2"],
                 ["rule", "delta", "floor", "events", "migration_rate"],
                 st.integers(1, 40))
    | _documents(("fp", "--spec-json"), ["kind"], ["a0", "a", "b0", "b"],
                 st.floats(0.5, 50)))

_SIM = ("simulate", "--config")
_FP = ("fp", "--spec-json")


@given(_CONFIG_DOCUMENTS)
@example((_SIM, '{"n_agents": "ten", "total_money_quanta": 10, "steps": 10, "seed": 1}'))
@example((_SIM, '{"n_agents": 10, "total_money_quanta": 10, "steps": 10, "seed": 1, '
                '"checkpoint_every": -5}'))
@example((_SIM, '{"n_agents": NaN, "total_money_quanta": 10, "steps": 10, "seed": 1}'))
@example((_SIM, "[10, 10, 10, 1]"))
@example((_FP, '{"kind": "additive", "a0": "1", "b0": 40}'))
@example((_FP, '{"kind": "additive", "a0": 1, "b0": 40, "a": 5}'))
@example((_FP, '{"kind": ["additive"], "a0": 1, "b0": 40}'))
@example((_FP, "{not json"))
@example((_FP, "[" * 100_000 + "]" * 100_000))
@example((_FP, '{"kind": "additive", "a0": 1, "b0": 1' + "0" * 400 + "}"))
@example((_SIM, '{"n_agents": 1' + "0" * 5000 + "}"))
@settings(max_examples=150, deadline=None)
def test_config_documents_end_cleanly(tmp_path_factory, job):
    flag_argv, text = job
    base = tmp_path_factory.getbasetemp() / "config-documents"
    base.mkdir(exist_ok=True)
    doc = base / "input.json"
    doc.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([*flag_argv, str(doc), "--out", str(base / "out")])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()


# A config document is its type's keyword arguments: each of these once
# ran silently wrong (10.7 agents as 10, "100" and true as numbers, the
# misspelled key dropped) and is now refused.
_CONFIG = {"n_agents": 10, "total_money_quanta": 100, "steps": 1000, "seed": 1}
_SPEC = {"kind": "additive", "a0": 1, "b0": 40}


@pytest.mark.parametrize("flag_argv, doc, match", [
    pytest.param(_SIM, {**_CONFIG, "n_agents": 10.7}, "n_agents", id="fraction"),
    pytest.param(_SIM, {**_CONFIG, "n_agents": "100"}, "n_agents", id="numeric-string"),
    pytest.param(_SIM, {**_CONFIG, "seed": True}, "seed", id="bool"),
    pytest.param(_SIM, {**_CONFIG, "delta": 2.5}, "delta", id="rule-fraction"),
    pytest.param(_SIM, {**_CONFIG, "floor": "-3"}, "floor", id="rule-string"),
    pytest.param(_SIM, {**_CONFIG, "chekpoint_every": 100}, "chekpoint_every",
                 id="misspelled-key"),
    pytest.param(_FP, {**_SPEC, "a0": True}, "a0", id="spec-bool"),
    pytest.param(_FP, {**_SPEC, "B": 2}, "'B'", id="spec-unknown-key"),
])
def test_config_document_rejected(tmp_path, capsys, flag_argv, doc, match):
    if flag_argv == _SIM:
        with pytest.raises(IneqStatsError, match=match):
            build_config(SimulationConfig,
                         json_object(json.dumps(doc), "simulation config"),
                         "simulation config")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = dispatch([*flag_argv, str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert match in err


@pytest.mark.parametrize("doc, written", [
    pytest.param('{"n_agents": 1e3, "total_money_quanta": 5000, "steps": 2000, "seed": 3}',
                 '{"n_agents": 1000, "total_money_quanta": 5000, "quantum_value": 1.0, '
                 '"rule": "uniform", "delta": 10, "floor": 0, "steps": 2000, "seed": 3, '
                 '"checkpoint_every": null}', id="exponent-form"),
    pytest.param('{"n_agents": 30, "total_money_quanta": 300, "steps": 600, "seed": 7.0, '
                 '"checkpoint_every": 200.0}',
                 '{"n_agents": 30, "total_money_quanta": 300, "quantum_value": 1.0, '
                 '"rule": "uniform", "delta": 20, "floor": 0, "steps": 600, "seed": 7, '
                 '"checkpoint_every": 200}', id="integral-floats"),
    pytest.param('{"n_agents": 30, "total_money_quanta": 300, "steps": 600, "seed": 21, '
                 '"quantum_value": 2}',
                 '{"n_agents": 30, "total_money_quanta": 300, "quantum_value": 2.0, '
                 '"rule": "uniform", "delta": 20, "floor": 0, "steps": 600, "seed": 21, '
                 '"checkpoint_every": null}', id="integer-quantum-value"),
])
def test_integral_config_values_accepted(tmp_path, doc, written):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "config.json").read_text() == written + "\n"


def test_fractional_income_count_names_its_line(tmp_path, capsys, income_csv):
    lines = income_csv.read_text().splitlines()
    level, count = lines[4].split(",")
    lines[4] = f"{level},{count}.9"
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    code = dispatch(["fit-income", "--input", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}:5: count must be a whole number")
    assert err.count("\n") == 1, err


def test_non_finite_income_level_refused(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("level_kusd,returns_at_or_above\n0,100000\n10,80000\nnan,50000\n"
                    "40,20000\ninf,100\n")
    code = dispatch(["fit-income", "--input", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: income levels must be finite\n"


def test_income_level_overflowing_the_body_fit_is_one_error_line(tmp_path, capsys):
    # numpy's polyfit squares the levels: 1e300 overflows inside it
    path = tmp_path / "table.csv"
    path.write_text("level_kusd,returns_at_or_above\n0,1000\n1,800\n2,600\n3,400\n"
                    "4,200\n1e300,100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = dispatch(["fit-income", "--input", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "overflow the temperature fit" in err


def test_energy_totals_beyond_float_refused(tmp_path, capsys):
    # every cell is finite, but the population and the consumption sum past float
    e, p = tmp_path / "e.csv", tmp_path / "p.csv"
    e.write_text("country,year,value\nA,2005,1e300\nB,2005,2.0\n")
    p.write_text("country,year,value\nA,2005,1e300\nB,2005,5\n")
    code = dispatch(["energy", "--energy", str(e), "--population", str(p),
                     "--year", "2005", "--per-capita", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "must be finite" in err


@pytest.mark.parametrize("argv, header, row", [
    pytest.param(["energy", "--energy", "{csv}", "--population", "{csv}", "--year", "1990"],
                 "country,year,value", "{long},1990,5", id="energy"),
    pytest.param(["fit-income", "--input", "{csv}"], "level_kusd,returns_at_or_above",
                 "10,{long}", id="fit-income"),
])
def test_over_long_cell_is_one_error_line(tmp_path, capsys, argv, header, row):
    path = tmp_path / "table.csv"
    long_row = row.format(long="9" * 131073)
    path.write_text(f"{header}\n{row.format(long='1')}\n{long_row}\n")
    argv = [str(path) if arg == "{csv}" else arg for arg in argv]
    code = dispatch(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {path}:3: field larger than field limit (131072)\n"


def test_duplicate_country_row_is_one_error_line(tmp_path, capsys):
    e, p = tmp_path / "e.csv", tmp_path / "p.csv"
    e.write_text("country,year,value\nA,1990,5\nB,1990,2\nA,1990,7\n")
    p.write_text("country,year,value\nA,1990,10\nB,1990,20\n")
    code = dispatch(["energy", "--energy", str(e), "--population", str(p),
                     "--year", "1990", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {e}:4: second 1990 row for 'A' (the first is on line 2)\n"


# A named pipe gives its bytes to the first open only: a reader that
# opened an input twice would wait for a writer that never comes, so
# these run in a fresh interpreter under run_module's timeout.
def test_malformed_income_table_in_a_fifo_is_one_error_line(tmp_path):
    with fifo_holding(tmp_path / "table.csv", b"level,count\n0,100\n10,50\nx,5\n") as fifo:
        done = run_module("fit-income", "--input", str(fifo), "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert done.stderr == f"error: {fifo}:4: could not convert string to float: 'x'\n"


def test_quoted_energy_pair_in_fifos_gives_the_bytes_of_the_plain_files(tmp_path, capsys):
    e, p = WRI_FIXTURE
    argv = ["--per-capita", "--year", "2005", "--out"]
    assert dispatch(["energy", "--energy", str(e), "--population", str(p), *argv,
                     str(tmp_path / "files")]) == 0
    with (fifo_holding(tmp_path / "energy.csv", quoted_crlf(e)) as e_fifo,
          fifo_holding(tmp_path / "population.csv", quoted_crlf(p)) as p_fifo):
        done = run_module("energy", "--energy", str(e_fifo), "--population", str(p_fifo),
                          *argv, str(tmp_path / "fifos"))
    assert done.returncode == 0, done.stderr
    for name in ("cdf.csv", "lorenz.csv", "summary.json"):
        assert read(tmp_path / "fifos" / name) == read(tmp_path / "files" / name), name
    manifest = json.loads((tmp_path / "fifos" / "manifest.json").read_text())
    assert manifest["inputs"] == {str(e_fifo): sha256(quoted_crlf(e)),
                                  str(p_fifo): sha256(quoted_crlf(p))}


def test_config_in_a_fifo_is_not_read_again_for_the_manifest(tmp_path, capsys):
    flags = tmp_path / "flags"
    assert dispatch(["simulate", "--agents", "100", "--money", "5000", "--steps", "2000",
                     "--seed", "3", "--out", str(flags)]) == 0
    config = read(flags / "config.json")
    with fifo_holding(tmp_path / "config.json", config) as fifo:
        done = run_module("simulate", "--config", str(fifo), "--out", str(tmp_path / "fifo"))
    assert done.returncode == 0, done.stderr
    for name in ("trajectory.csv", "histogram.csv"):
        assert read(tmp_path / "fifo" / name) == read(flags / name), name
    manifest = json.loads((tmp_path / "fifo" / "manifest.json").read_text())
    assert manifest["inputs"] == {str(fifo): sha256(config)}


def test_config_rerun_in_place_records_the_config_it_read(tmp_path, capsys):
    run = tmp_path / "run"
    assert dispatch(["simulate", "--agents", "100", "--money", "5000", "--steps", "2000",
                     "--seed", "3", "--out", str(run)]) == 0
    config = run / "config.json"
    given = json.dumps(json.loads(config.read_text()), indent=1).encode()
    config.write_bytes(given)   # the same values in other bytes than the run writes back
    assert dispatch(["simulate", "--config", str(config), "--out", str(run)]) == 0
    assert read(config) != given
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["inputs"] == {str(config): sha256(given)}


def test_table_overwritten_by_its_own_fit_is_digested_as_read(tmp_path, capsys, income_csv):
    out = tmp_path / "out"
    out.mkdir()
    table = out / "lorenz.csv"
    table.write_bytes(read(income_csv))
    assert dispatch(["fit-income", "--input", str(table), "--out", str(out)]) == 0
    assert read(table) != read(income_csv)   # now the run's Lorenz curve
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(table): sha256(read(income_csv))}


def one_run_of_each(tmp_path, income_csv):
    """Per subcommand, the argv of a run that reads input files, and those
    files; the config documents are written under ``tmp_path``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_agents": 100, "total_money_quanta": 5000,
                                  "steps": 2000, "seed": 3}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "additive", "a0": 1, "b0": 40}))
    e, p = WRI_FIXTURE
    return {
        "simulate": (["simulate", "--config", str(config)], [config]),
        "fp": (["fp", "--spec-json", str(spec)], [spec]),
        "fit-income": (["fit-income", "--input", str(income_csv)], [income_csv]),
        "energy": (["energy", "--energy", str(e), "--population", str(p), "--per-capita",
                    "--year", "2005"], [e, p]),
    }


@pytest.mark.parametrize("subcommand", ["simulate", "fp", "fit-income", "energy"])
def test_each_input_is_opened_once_and_digested_as_read(tmp_path, capsys, opens,
                                                         income_csv, subcommand):
    argv, inputs = one_run_of_each(tmp_path, income_csv)[subcommand]
    opens.clear()
    assert dispatch(argv + ["--out", str(tmp_path / "out")]) == 0
    assert {str(path): opens[str(path)] for path in inputs} == {str(path): 1 for path in inputs}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["inputs"] == {str(path): sha256(read(path)) for path in inputs}


@pytest.mark.parametrize("subcommand", ["simulate", "fp", "fit-income", "energy"])
def test_manifest_names_the_python_numpy_and_machine(tmp_path, capsys, income_csv,
                                                      subcommand):
    argv, _ = one_run_of_each(tmp_path, income_csv)[subcommand]
    assert dispatch(argv + ["--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["python"], manifest["numpy"], manifest["machine"]) == (
        sys.version, np.__version__, platform.machine())


@pytest.mark.parametrize("mode, counts, message", [
    pytest.param("at-or-above", ("1e20", "50", "10"), ":2: count 1e20 lies beyond 64-bit",
                 id="count-beyond-int64"),
    pytest.param("in-bin", ("5e18", "5e18", "10"), "table total exceeds 64-bit",
                 id="in-bin-total-beyond-int64"),
])
def test_income_counts_beyond_int64_refused(tmp_path, capsys, mode, counts, message):
    path = tmp_path / "table.csv"
    path.write_text("level_kusd,returns\n"
                    + "".join(f"{level},{count}\n" for level, count in zip((0, 10, 20), counts)))
    code = dispatch(["fit-income", "--input", str(path), "--mode", mode,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err


# Command lines for all four subcommands: an optional valid base, then
# flags drawn with plausible and implausible values (argparse keeps the
# last value of a repeated flag).  Sizes stay small, and money either
# small or beyond 64 bits, so that a valid argv is a run of a few hundred
# exchange attempts, a coarse grid or one fit of the income fixture.
_NUMBER = ("0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e308", "x", "")
_FILES = ("{config}", "{bad_config}", "{spec}", "{bad_spec}", "{table}", "{frac_table}",
          "{energy}", "{population}", "{latin1}", "{missing}", "{dir}")
_WINDOWS = (("0.1", "0.95"), ("0.001", "0.03"), ("0.95", "0.1"), ("0", "1"),
            ("nan", "0.5"), ("-1", "2"), ("0.5",))
_SIZE = ("1", "2", "10", "40", "0", "-1", "2.5", "1000000000000", "x")
_MONEY = ("0", "100", "1000", "-5", "99999999999999999999999", "x")
_COUNT = ("1", "200", "0", "-1", "2.5")
_ARGV_FLAGS = {
    "simulate": {
        "--config": _FILES, "--agents": _SIZE, "--money": _MONEY, "--steps": _COUNT,
        "--rule": ("fixed", "uniform", "bogus"),
        "--delta": ("1", "3", "0", "-2", "99999999999999999999999"),
        "--floor": ("0", "-3", "1", "-99999999999999999999999"),
        "--quantum-value": _NUMBER, "--seed": ("0", "1", "-1", "x"),
        "--checkpoint-every": ("1", "50", "0", "-5"), "--agents2": _SIZE,
        "--money2": _MONEY, "--migration-rate": ("0", "0.5", "1", "1.5", "-0.1", "nan"),
        "--events": _COUNT,
    },
    "fp": {
        "--kind": ("additive", "multiplicative", "combined", "bogus"),
        "--a0": _NUMBER + ("40",), "--a": _NUMBER, "--b0": _NUMBER + ("40",), "--b": _NUMBER,
        "--spec-json": _FILES, "--r-max": ("100", "1e6") + _NUMBER,
        "--r-min": ("0", "1", "1e-3", "-1", "nan", "1e6"),
        "--points-per-decade": ("1", "50", "0", "-1", "2.5"),
    },
    "fit-income": {
        "--input": _FILES, "--mode": ("at-or-above", "in-bin", "bogus"),
        "--year": ("2007", "-1", "x"), "--exp-window": _WINDOWS,
        "--tail-window": _WINDOWS, "--no-refine": ((),),
    },
    "energy": {
        "--energy": _FILES, "--population": _FILES,
        "--year": ("1990", "2005", "1800", "x"), "--per-capita": ((),),
    },
}
# valid bases, each drawn two times in three; most fits skip the
# refinement, which is nine tenths of a fit's time
_ARGV_BASES = {
    "simulate": [("--agents", "10", "--money", "100", "--steps", "200", "--seed", "1")] * 2,
    "fp": [("--kind", "additive", "--a0", "1", "--b0", "40", "--points-per-decade", "50")] * 2,
    "fit-income": [("--input", "{table}", "--no-refine"), ("--input", "{table}")],
    "energy": [("--energy", "{energy}", "--population", "{population}", "--year", "2005",
                "--per-capita")] * 2,
}


def _argvs(sub):
    """[sub, base, flag-value pairs, junk, --out]; every strategy is built
    once here, which keeps the draws cheap."""
    options = st.sampled_from([(flag, *v) if isinstance(v, tuple) else (flag, v)
                               for flag, values in sorted(_ARGV_FLAGS[sub].items())
                               for v in values])
    return st.builds(
        lambda base, chosen, junk, out: [sub, *base, *(t for o in chosen for t in o),
                                         *junk, *out],
        st.sampled_from(_ARGV_BASES[sub] + [()]),
        st.lists(options, max_size=4),
        st.sampled_from([()] * 8 + [("--bogus",), ("--out",), ("frobnicate",)]),
        st.sampled_from([("--out", "{out}")] * 8 + [()]))


_ARGVS = st.one_of([_argvs(sub) for sub in sorted(_ARGV_FLAGS)])


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, income_csv):
    base = tmp_path_factory.mktemp("argv")
    files = {"{dir}": base, "{missing}": base / "missing.csv", "{out}": base / "out",
             "{table}": income_csv}
    for name, text in {
        "config": json.dumps({"n_agents": 10, "total_money_quanta": 100, "steps": 200,
                              "seed": 1}),
        "bad_config": '{"n_agents": 10.7, "total_money_quanta": 100, "steps": 200, '
                      '"seed": 1}',
        "spec": '{"kind": "additive", "a0": 1, "b0": 40}',
        "bad_spec": '{"kind": "additive", "a0": true, "b0": 40}',
        "frac_table": "level_kusd,returns_at_or_above\n0,100\n10,50.5\n20,10\n",
    }.items():
        files["{" + name + "}"] = base / f"{name}.txt"
        files["{" + name + "}"].write_text(text)
    files["{latin1}"] = base / "latin1.csv"
    files["{latin1}"].write_bytes(b"country,year,value\nCura\xe7ao,2005,1\n")
    files["{energy}"], files["{population}"] = WRI_FIXTURE
    return files


@given(_ARGVS)
@seed(20261018)
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_argv_ends_cleanly(argv_files, argv):
    argv = [str(argv_files.get(token, token)) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()


@pytest.mark.parametrize("argv", [
    pytest.param(["--a", "1", "--b", "1e308"], id="diffusion"),
    pytest.param(["--a", "1e308", "--b", "1"], id="drift"),
])
def test_fp_coefficient_overflow_is_one_error_line(tmp_path, capsys, argv):
    # b r^2 overflowed with numpy's RuntimeWarning, and the run exited 0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = dispatch(["fp", "--kind", "combined", "--a0", "1", "--b0", "40", *argv,
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


# The CI recipes' data files, by SHA-256.  Reruns on one commit cannot
# see a formatting change, so these pin the bytes across commits; a numpy
# whose exp or log rounds differently in the last place changes the fp and
# simulate digests too.
CI_RECIPE_DIGESTS = {
    "fp/solution.csv": "9d8a27fcceee58df929cde2f7956ab807add8ff6ad0a4b88b1dc8eb37fe9dad6",
    "single/trajectory.csv": "25dfc2fbd86f1cef693f0bdf91e55f259c793a8649a91bcc9e8d2cfb27fa3b89",
    "single/histogram.csv": "d17f8c3f898a8950fb3366c1e85ac9932aeb3561bbae40a19d73912f1d2c76d3",
    "debt/trajectory.csv": "b792b1b1cc458490751e194e2f87306ac815ccc693c86ffb3cf3061e481d0a72",
    "debt/histogram.csv": "291acbef8607178c395dfaf325eeb171d273e79d9cdeb1db2c3f040019934e9b",
    "coupled/flux.json": "529e88886733ebdd26efe2af29cdf341f4f6ca3dd027e0c31e0375707f10dcf5",
    "coupled/histogram1.csv": "029e3c9df267132ffc52604ff6bda5c9f7f19ef20f98c1aea74edd3a9db9ffca",
    "coupled/histogram2.csv": "74e79389dd487c2d7b907ce96856dc961e52dbb299cdd0ee5eef4cd2c8aeb750",
    "coupled-debt/flux.json": "90a655c329f42ab5f030a34ba1dd182a02eb5b79b5366d3630078a00ca1fa5d2",
    "coupled-debt/histogram1.csv": "59a909ab53567ebfa7c30a13a95dc555bb609447d92b1ee761d148b73e88f2a4",
    "coupled-debt/histogram2.csv": "464e0560ed79e915c624e32e37dde497d16b55262cdc40e3fb307f1c17b76ced",
    "energy/cdf.csv": "69ddfc9f908c3b7e0352c3cf31d3f4fa703787d22076b43a47f046b8550bd6db",
    "energy/lorenz.csv": "af1db48dcc3a13c5a24cc28811dd6183f3b06d4f51b200b89e0009ece13dfacf",
    "fit-income/lorenz.csv": "705ac8fb7822acc18157ea68067b31191b3b4bd19f96a3310fb90d2fa52fe3da",
}


def test_ci_recipe_data_files_keep_their_bytes(tmp_path, capsys):
    from ineqstats.io import sha256_file
    table = sample_income_table(TwoClassModel(48, 1.34, 113), 100000,
                                np.random.default_rng(1), year=2007)
    comp = table.counts[::-1].cumsum()[::-1]
    income = tmp_path / "income.csv"
    income.write_text("level_kusd,returns_at_or_above\n" + "".join(
        f"{level!r},{count}\n" for level, count in zip(table.levels.tolist(), comp.tolist())))
    energy, population = WRI_FIXTURE
    simulate = ["simulate", "--agents", "100", "--money", "5000", "--seed", "3"]
    coupled = ["--agents2", "100", "--money2", "2000", "--steps", "5000", "--events", "500",
               "--migration-rate", "0.3"]
    recipes = {
        "fp": (["fp", "--kind", "additive", "--a0", "1", "--b0", "40"], ["solution.csv"]),
        "single": (simulate + ["--steps", "20000", "--checkpoint-every", "2000"],
                   ["trajectory.csv", "histogram.csv"]),
        "debt": (simulate + ["--steps", "20000", "--checkpoint-every", "2000",
                             "--floor", "-20"], ["trajectory.csv", "histogram.csv"]),
        "coupled": (simulate + coupled, ["flux.json", "histogram1.csv", "histogram2.csv"]),
        # odd N, a debt floor and both coupling channels
        "coupled-debt": (["simulate", "--agents", "101", "--money", "5000", "--seed", "3",
                          "--floor", "-20"] + coupled,
                         ["flux.json", "histogram1.csv", "histogram2.csv"]),
        "energy": (["energy", "--energy", str(energy), "--population", str(population),
                    "--per-capita", "--year", "2005"], ["cdf.csv", "lorenz.csv"]),
        "fit-income": (["fit-income", "--input", str(income), "--year", "2007"],
                       ["lorenz.csv"]),
    }
    digests = {}
    for name, (argv, files) in recipes.items():
        assert dispatch(argv + ["--out", str(tmp_path / name)]) == 0, name
        for file in files:
            digests[f"{name}/{file}"] = sha256_file(tmp_path / name / file)
    capsys.readouterr()
    assert digests == CI_RECIPE_DIGESTS
