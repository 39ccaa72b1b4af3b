import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ineqstats import TwoClassModel, sample_income_table
from ineqstats.cli import dispatch
from ineqstats.io import write_csv
from ineqstats.wri_fixture import write_fixture_csvs


def read(path):
    return path.read_bytes()


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
    write_csv(path, ("level_kusd", "returns_at_or_above"),
              zip(table.levels.tolist(), comp.tolist()))
    return path


@pytest.fixture(scope="module")
def fixture_csvs(tmp_path_factory):
    base = tmp_path_factory.mktemp("wri")
    e, p = base / "energy.csv", base / "population.csv"
    write_fixture_csvs(e, p)
    return e, p


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

    def test_missing_file_exit_code(self, tmp_path):
        code = dispatch(["fit-income", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o")])
        assert code == 1


class TestEnergy:
    def test_summary_world_average_matches_oracle(self, tmp_path, fixture_csvs):
        e, p = fixture_csvs
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

    def test_manifest_digests_inputs(self, tmp_path, fixture_csvs):
        e, p = fixture_csvs
        out = tmp_path / "m"
        dispatch(["energy", "--energy", str(e), "--population", str(p),
                  "--year", "1990", "--per-capita", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(e) in manifest["inputs"]
        from ineqstats.io import sha256_file
        assert manifest["inputs"][str(e)] == sha256_file(e)

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
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--r-max", "1e308"], id="r-max-overflows-grid"),
    pytest.param(["fp", "--kind", "multiplicative", "--a", "1", "--b", "1",
                  "--r-min", "1e6", "--r-max", "100"], id="r-min-above-r-max"),
    pytest.param(["fp", "--kind", "additive", "--a0", "1", "--b0", "40",
                  "--a", "5"], id="coefficient-outside-kind"),
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
