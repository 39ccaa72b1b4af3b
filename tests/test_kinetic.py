import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lattice_ks
from ineqstats import kinetic
from ineqstats import (AgentEnsemble, BinnedHistogram, ConfigurationError,
                       CycleSpec, DomainError, ExchangeRule, FormatError,
                       RULE_FIXED, RULE_UNIFORM, couple_systems,
                       cycle_profit_and_rate, entropy, init_ensemble,
                       run_simulation, temperature_and_potential)


class TestEnsembleSetup:
    def test_even_split(self):
        assert init_ensemble(4, 8).balances.tolist() == [2, 2, 2, 2]

    def test_remainder_goes_to_first_agents(self):
        ens = init_ensemble(3, 8)
        assert ens.balances.tolist() == [3, 3, 2]
        assert ens.total == 8

    def test_zero_agents_rejected(self):
        with pytest.raises(DomainError):
            init_ensemble(0, 10)

    def test_agent_ceiling_refused_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "full", no_allocation)
        with pytest.raises(ConfigurationError, match="ceiling"):
            init_ensemble(kinetic.MAX_AGENTS + 1, 10)

    def test_equal_start_has_zero_entropy(self):
        ens = init_ensemble(10_000, 1_000_000)
        hist = BinnedHistogram.from_ensemble(ens, origin=0)
        assert entropy(hist) == 0.0

    @pytest.mark.parametrize("balances", [[1.5, 2.5], [1, math.nan], [True, False],
                                          [2.0 ** 63, 0.0], ["1", "2"]])
    @pytest.mark.filterwarnings("error")
    def test_balances_and_bin_counts_are_whole_numbers(self, balances):
        # [1.5, 2.5] was once truncated to [1, 2]
        with pytest.raises(FormatError, match="balances must be whole numbers"):
            AgentEnsemble(balances)
        with pytest.raises(FormatError, match="bin counts must be whole numbers"):
            BinnedHistogram(balances)

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    def test_histogram_origin_is_a_finite_number(self, origin):
        # a NaN origin once made every bin_lowers() NaN
        with pytest.raises(DomainError, match="origin must be a finite number"):
            BinnedHistogram(np.array([2, 1]), origin=origin)

    def test_whole_number_balances_are_kept(self):
        balances = np.array([3, 0, 7], dtype=np.int64)
        assert AgentEnsemble(balances).balances is balances   # no copy
        assert AgentEnsemble([3.0, 0.0, -2.0]).balances.tolist() == [3, 0, -2]
        assert BinnedHistogram(np.array([2, 1], dtype=np.int32)).counts.dtype == np.int64

    def test_rule_validation(self):
        with pytest.raises(DomainError):
            ExchangeRule("other")
        with pytest.raises(DomainError):
            ExchangeRule(RULE_FIXED, delta=0)
        with pytest.raises(DomainError):
            ExchangeRule(RULE_FIXED, floor=1)

    @pytest.mark.parametrize("field, value", [("delta", 2.5), ("delta", True),
                                              ("delta", math.nan), ("floor", -1.5),
                                              ("floor", False), ("floor", "0")])
    def test_rule_amounts_are_whole_numbers(self, field, value):
        # a uniform delta of 2.5 once ran, drawing amounts in 1..2
        with pytest.raises(FormatError, match=f"{field} must be a whole number"):
            ExchangeRule(RULE_UNIFORM, **{field: value})
        rule = ExchangeRule(RULE_UNIFORM, delta=3.0, floor=np.int64(-2))
        assert (rule.delta, rule.floor) == (3, -2)
        assert type(rule.delta) is int and type(rule.floor) is int

    @pytest.mark.parametrize("n_agents, total", [(2.5, 10), (10, 2.5), (10, math.nan),
                                                 (True, 10)])
    @pytest.mark.filterwarnings("error")
    def test_ensemble_sizes_are_whole_numbers(self, n_agents, total):
        # a NaN total once warned "invalid value encountered in cast"
        with pytest.raises(FormatError, match="must be a whole number"):
            init_ensemble(n_agents, total)
        assert init_ensemble(4.0, 1e2).balances.tolist() == [25] * 4

    @pytest.mark.parametrize("steps", [2.5, math.nan, True])
    def test_step_counts_are_whole_numbers(self, steps):
        rule = ExchangeRule(RULE_FIXED)
        with pytest.raises(FormatError, match="steps must be a whole number"):
            run_simulation(init_ensemble(10, 100), rule, steps, seed=1)
        with pytest.raises(FormatError, match="steps must be a whole number"):
            couple_systems(init_ensemble(10, 100), init_ensemble(10, 50), rule, steps,
                           0.0, seed=1)


class TestRunSimulation:
    def test_determinism_bit_identical(self):
        runs = []
        for _ in range(2):
            ens = init_ensemble(500, 25_000)
            traj = run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=100),
                                  200_000, checkpoint_every=50_000, seed=42)
            runs.append(traj)
        a, b = runs
        assert np.array_equal(a.ensemble.balances, b.ensemble.balances)
        assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(a.steps, b.steps)

    def test_entropy_grows_from_degenerate_start(self):
        ens = init_ensemble(2000, 100_000)
        traj = run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=100),
                              2_000_000, checkpoint_every=500_000, seed=7)
        assert traj.entropy[0] == 0.0
        assert traj.entropy[-1] > traj.entropy[0]

    def test_relaxes_to_exponential(self):
        ens = init_ensemble(2000, 100_000)   # T = 50 quanta
        traj = run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=100),
                              10_000_000, seed=11)
        ks = lattice_ks(traj.ensemble.balances, 50.0)
        assert ks < 0.05   # equilibrium KS scale for N=2000 is ~0.03
        s_eq = 2000 * (1 + math.log(50.0))
        assert abs(traj.entropy[-1] / s_eq - 1) < 0.02

    def test_debt_mode_conserves_and_respects_floor(self):
        ens = init_ensemble(1000, 50_000)
        rule = ExchangeRule(RULE_UNIFORM, delta=100, floor=-50)
        traj = run_simulation(ens, rule, 5_000_000, seed=3)
        assert traj.ensemble.total == 50_000
        assert traj.ensemble.balances.min() >= -50

    def test_checkpoint_steps_are_attempt_counts(self):
        ens = init_ensemble(100, 5000)
        traj = run_simulation(ens, ExchangeRule(RULE_FIXED), 1000,
                              checkpoint_every=250, seed=1)
        assert traj.steps[0] == 0
        assert traj.steps[-1] >= 1000
        assert np.all(np.diff(traj.steps) > 0)

    @pytest.mark.parametrize("checkpoint_every", [0, -5])
    def test_checkpoint_interval_below_one_rejected(self, checkpoint_every):
        ens = init_ensemble(10, 500)
        with pytest.raises(ConfigurationError, match="at least one attempt"):
            run_simulation(ens, ExchangeRule(RULE_FIXED), 50,
                           checkpoint_every=checkpoint_every, seed=1)

    @pytest.mark.parametrize("checkpoint_every", [math.nan, 2.5, True])
    @pytest.mark.filterwarnings("error")
    def test_checkpoint_interval_is_a_whole_number(self, checkpoint_every):
        with pytest.raises(FormatError, match="checkpoint_every must be a whole number"):
            run_simulation(init_ensemble(10, 100), ExchangeRule(RULE_FIXED), 20,
                           checkpoint_every=checkpoint_every, seed=1)
        traj = run_simulation(init_ensemble(10, 100), ExchangeRule(RULE_FIXED), 20,
                              checkpoint_every=10.0, seed=1)
        assert traj.steps.tolist() == [0, 10, 20]

    def test_checkpoints_every_whole_rounds_within_the_interval(self):
        # N//2 = 5 attempts a round: 7 attempts hold one whole round, so the
        # checkpoints fall every round, not past each multiple of 7
        traj = run_simulation(init_ensemble(10, 100), ExchangeRule(RULE_FIXED), 30,
                              checkpoint_every=7, seed=1)
        assert traj.steps.tolist() == [0, 5, 10, 15, 20, 25, 30]
        traj = run_simulation(init_ensemble(10, 100), ExchangeRule(RULE_FIXED), 30,
                              checkpoint_every=12, seed=1)
        assert traj.steps.tolist() == [0, 10, 20, 30]

    def test_amount_memory_flat_in_steps(self):
        # one checkpoint burst: drawing its amounts in one call would take
        # 16 MB at 8 000 rounds of 250 pairs
        def peak(rounds):
            ens = init_ensemble(500, 25_000)
            tracemalloc.start()
            try:
                run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=100),
                               rounds * 250, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(800)   # first-call allocations
        assert peak(8000) <= 1.5 * peak(800)

    def test_generator_seed_is_used_as_given(self):
        rule = ExchangeRule(RULE_UNIFORM, delta=100)
        from_int = run_simulation(init_ensemble(300, 15000), rule, 60000, seed=21)
        gen = np.random.default_rng(21)
        first = run_simulation(init_ensemble(300, 15000), rule, 60000, seed=gen)
        second = run_simulation(init_ensemble(300, 15000), rule, 60000, seed=gen)
        assert np.array_equal(first.ensemble.balances, from_int.ensemble.balances)
        # the generator was advanced by the first run, not rebuilt
        assert not np.array_equal(second.ensemble.balances, first.ensemble.balances)

    @pytest.mark.parametrize("seed, error", [(-1, DomainError), (1.5, FormatError),
                                             (True, FormatError), ("1", FormatError),
                                             (math.nan, FormatError)])
    @pytest.mark.filterwarnings("error")
    def test_seed_is_a_whole_number_at_least_zero(self, seed, error):
        rule = ExchangeRule(RULE_FIXED)
        with pytest.raises(error, match="seed"):
            run_simulation(init_ensemble(10, 100), rule, 20, seed=seed)
        with pytest.raises(error, match="seed"):
            couple_systems(init_ensemble(10, 100), init_ensemble(10, 50), rule, 20,
                           0.5, seed=seed)
        whole = run_simulation(init_ensemble(10, 100), rule, 20, seed=1e3)
        assert np.array_equal(whole.ensemble.balances,
                              run_simulation(init_ensemble(10, 100), rule, 20,
                                             seed=1000).ensemble.balances)


def _reference_round(balances, amounts, floor, rng):
    """The round as first written, with an index permutation, three boolean
    compressions and a second gather.  Returns the permutation drawn."""
    n = balances.size
    half = n // 2
    perm = rng.permutation(n)
    payers = perm[:half]
    receivers = perm[half:2 * half]
    ok = balances[payers] - amounts >= floor
    balances[payers[ok]] -= amounts[ok]
    balances[receivers[ok]] += amounts[ok]
    return perm


class TestRound:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 300), money_per_agent=st.integers(0, 60),
           kind=st.sampled_from([RULE_FIXED, RULE_UNIFORM]),
           delta=st.integers(1, 50), floor=st.integers(-20, 0),
           rounds=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_round(self, n, money_per_agent, kind, delta,
                                     floor, rounds, seed):
        # Generator.shuffle draws what Generator.permutation draws and
        # leaves balances[perm], so the shuffled round equals the reference
        # round with the same amounts, read through its permutation.
        rule = ExchangeRule(kind, delta, floor)
        balances = init_ensemble(n, n * money_per_agent).balances
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        amount_rng = np.random.default_rng([seed, 1])
        for _ in range(rounds):
            amounts = kinetic._draw_amounts(rule, amount_rng, n // 2)
            reference = balances.copy()
            perm = _reference_round(reference, amounts, floor, reference_rng)
            kinetic._run_round(balances, amounts.copy(), floor, rng)
            assert np.array_equal(balances, reference[perm])
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestInt64Limits:
    def test_rule_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            ExchangeRule(RULE_UNIFORM, delta=10**23)
        with pytest.raises(DomainError):
            ExchangeRule(RULE_FIXED, floor=-10**23)
        with pytest.raises(DomainError):
            ExchangeRule(RULE_FIXED, delta=2**62 + 1, floor=-2**62)
        ExchangeRule(RULE_FIXED, delta=2**62, floor=-2**62)   # exactly -2**63

    def test_total_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            init_ensemble(3, 2**63)
        assert init_ensemble(1, 2**63 - 1).total == 2**63 - 1

    def test_reachable_balance_beyond_int64_rejected(self):
        ens = init_ensemble(4, 2**62)
        with pytest.raises(DomainError):
            run_simulation(ens, ExchangeRule(RULE_FIXED, floor=-2**61), 10, seed=1)
        with pytest.raises(DomainError):
            couple_systems(ens, init_ensemble(4, 2**62), ExchangeRule(RULE_FIXED),
                           10, 0.0, seed=1)

    def test_unallocatable_histogram_rejected(self):
        ens = AgentEnsemble([0, 2**62])
        with pytest.raises(DomainError, match="cannot be allocated"):
            BinnedHistogram.from_ensemble(ens, origin=0)


class TestSimulationConfig:
    def test_json_schema_round_trip(self):
        from ineqstats import SimulationConfig
        import json
        config = SimulationConfig(n_agents=400, total_money_quanta=20000,
                                  steps=100000, seed=9, rule="uniform",
                                  floor=-5, quantum_value=2.0,
                                  checkpoint_every=25000)
        from dataclasses import asdict
        from ineqstats.io import build_config, json_object
        text = json.dumps(asdict(config))
        blob = json.loads(text)
        assert list(blob) == ["n_agents", "total_money_quanta", "quantum_value",
                              "rule", "delta", "floor", "steps", "seed",
                              "checkpoint_every"]
        assert blob["delta"] == 100   # resolved to 2 * M/N for uniform
        again = build_config(SimulationConfig, json_object(text, "simulation config"),
                             "simulation config")
        assert again.exchange_rule() == config.exchange_rule()
        assert again.seed == 9 and again.checkpoint_every == 25000

    def test_coupled_config_checks_system1_and_its_own_fields(self):
        from ineqstats import CoupledConfig, FormatError
        base = {"n_agents": 10, "total_money_quanta": 100, "steps": 50, "seed": 1,
                "n_agents2": 10.0, "total_money_quanta2": 50}
        config = CoupledConfig(**base)
        assert config.n_agents2 == 10 and type(config.n_agents2) is int
        assert config.exchange_rule() == ExchangeRule(RULE_UNIFORM, delta=20)
        assert (config.events, config.migration_rate) == (1000, 0.0)
        for bad, error in [({"seed": -1}, DomainError), ({"rule": "bogus"}, DomainError),
                           ({"events": 2.5}, FormatError), ({"migration_rate": 1.5}, DomainError),
                           ({"migration_rate": True}, DomainError)]:
            with pytest.raises(error):
                CoupledConfig(**{**base, **bad})

    def test_config_run_matches_direct_run(self):
        from ineqstats import SimulationConfig, run_from_config
        config = SimulationConfig(n_agents=300, total_money_quanta=15000,
                                  steps=60000, seed=21)
        traj_a = run_from_config(config)
        ens = init_ensemble(300, 15000)
        traj_b = run_simulation(ens, config.exchange_rule(), 60000, seed=21)
        assert np.array_equal(traj_a.ensemble.balances, traj_b.ensemble.balances)

    def test_bad_config_rejected(self):
        from ineqstats import SimulationConfig, FormatError
        from ineqstats.io import build_config, json_object
        with pytest.raises(FormatError):
            json_object("{not json", "simulation config")
        with pytest.raises(DomainError):
            build_config(SimulationConfig, {"n_agents": 10}, "simulation config")


def _multiplicity(occupations):
    """Exact W = N! / prod N_k! and ln W, the reference for the Stirling entropy."""
    omega = math.factorial(sum(occupations))
    for n_k in occupations:
        omega //= math.factorial(n_k)
    return omega, math.log(omega)


class TestEntropyAndMultiplicity:
    def test_single_bin_entropy_zero(self):
        assert entropy(BinnedHistogram(np.array([7]))) == 0.0

    def test_small_split_value(self):
        # -[2 ln(2/4) + ln(1/4) + ln(1/4)] = 2 ln 2 + 4 ln 2 = 6 ln 2
        hist = BinnedHistogram(np.array([2, 1, 1]))
        assert entropy(hist) == pytest.approx(6 * math.log(2), abs=1e-12)

    def test_uniform_spread(self):
        hist = BinnedHistogram(np.full(8, 5))   # 40 agents over 8 bins
        assert entropy(hist) == pytest.approx(40 * math.log(8), rel=1e-12)

    def test_empty_histogram_rejected(self):
        with pytest.raises(DomainError):
            entropy(BinnedHistogram(np.array([0, 0])))

    def test_multiplicity_small_case(self):
        omega, log_omega = _multiplicity([2, 1, 1])
        assert omega == 12
        assert log_omega == pytest.approx(math.log(12), abs=1e-12)

    def test_multiplicity_single_bin(self):
        omega, log_omega = _multiplicity([9])
        assert omega == 1
        assert log_omega == 0.0

    def test_stirling_bound_and_shrinking_gap(self):
        gaps = []
        for n in (8, 12, 16):
            occ = [n // 4] * 4
            _, log_omega = _multiplicity(occ)
            s = entropy(BinnedHistogram(np.array(occ)))
            assert log_omega <= s
            gaps.append((s - log_omega) / n)
        assert gaps[0] > gaps[1] > gaps[2]


class TestTemperatureAndPotential:
    def test_t_equals_quantum_gives_zero_potential(self):
        ens = AgentEnsemble([1, 1, 1])
        T, mu = temperature_and_potential(ens, m_star=1.0)
        assert T == 1.0
        assert mu == 0.0

    def test_ten_quanta_case(self):
        ens = AgentEnsemble([10, 10])
        for m_star in (1.0, 2.5):
            T, mu = temperature_and_potential(ens, m_star=m_star)
            assert T == pytest.approx(10 * m_star)
            assert mu == pytest.approx(-10 * m_star * math.log(10), rel=1e-12)

    def test_big_system(self):
        ens = init_ensemble(10_000, 1_000_000)
        T, _ = temperature_and_potential(ens)
        assert T == 100.0

    def test_zero_money_signalled(self):
        with pytest.raises(DomainError):
            temperature_and_potential(AgentEnsemble([0, 0]))

    @pytest.mark.parametrize("m_star", [math.nan, math.inf])
    def test_non_finite_quantum_rejected(self, m_star):
        with pytest.raises(DomainError):
            temperature_and_potential(AgentEnsemble([10, 10]), m_star)

    @pytest.mark.parametrize("ens, m_star", [
        pytest.param(init_ensemble(10, 100), 1e308, id="T-overflows"),     # gave (inf, -inf)
        pytest.param(AgentEnsemble([10 ** 10]), 1.7e298, id="mu-overflows"),   # mu = -inf
        pytest.param(AgentEnsemble([1, 0]), 5e-324, id="T-underflows"),    # log(0) ValueError
    ])
    def test_temperature_or_potential_beyond_float_refused(self, ens, m_star):
        with pytest.raises(DomainError):
            temperature_and_potential(ens, m_star)


def _equilibrated(n, t_quanta, seed):
    ens = init_ensemble(n, n * t_quanta)
    run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=2 * t_quanta),
                   200 * (n // 2), seed=seed)
    return ens


class TestCoupledSystems:
    def test_money_flows_from_hot_to_cold(self):
        ens1 = _equilibrated(500, 100, seed=1)
        ens2 = _equilibrated(500, 50, seed=2)
        report = couple_systems(ens1, ens2, ExchangeRule(RULE_UNIFORM, delta=100),
                                2000, migration_rate=0.0, seed=3)
        assert report.delta_money > 0
        assert report.delta_agents == 0
        assert report.delta_entropy_estimate >= 0
        assert report.t1_final < report.t1_initial

    def test_symmetric_systems_have_null_flux(self):
        # estimate the null flux scale from replica runs, then check one
        # run sits inside three sigma
        fluxes = []
        for rep in range(20):
            ens1 = _equilibrated(400, 60, seed=100 + rep)
            ens2 = _equilibrated(400, 60, seed=200 + rep)
            report = couple_systems(ens1, ens2, ExchangeRule(RULE_UNIFORM, delta=120),
                                    1500, migration_rate=0.0, seed=300 + rep)
            fluxes.append(report.delta_money)
        sigma = np.std(fluxes)
        assert abs(fluxes[0]) < 3 * sigma

    def test_agents_flow_toward_higher_temperature(self):
        ens1 = _equilibrated(500, 100, seed=5)
        ens2 = _equilibrated(500, 50, seed=6)
        report = couple_systems(ens1, ens2, ExchangeRule(RULE_UNIFORM, delta=100),
                                500, migration_rate=1.0, seed=7)
        assert report.delta_agents < 0
        assert ens1.n + ens2.n == 1000
        assert ens1.total + ens2.total == report.t1_initial * 500 + report.t2_initial * 500

    def test_migration_rate_domain(self):
        ens1 = _equilibrated(100, 50, seed=8)
        ens2 = _equilibrated(100, 50, seed=9)
        with pytest.raises(DomainError):
            couple_systems(ens1, ens2, ExchangeRule(RULE_FIXED), 10, 1.5)

    @pytest.mark.parametrize("rate", [True, "0.5", None])
    def test_migration_rate_is_a_real_number(self, rate):
        # True once ran as rate 1, and "0.5" raised a TypeError
        with pytest.raises(DomainError, match="migration rate"):
            couple_systems(init_ensemble(10, 100), init_ensemble(10, 50),
                           ExchangeRule(RULE_FIXED), 10, rate, seed=1)

    @settings(max_examples=120, deadline=None)
    @given(n1=st.integers(1, 40), n2=st.integers(1, 40),
           money1=st.integers(0, 2000), money2=st.integers(0, 2000),
           kind=st.sampled_from([RULE_FIXED, RULE_UNIFORM]),
           delta=st.integers(1, 30), floor=st.integers(-20, 0),
           migration_rate=st.floats(0.0, 1.0), events=st.integers(1, 1500),
           seed=st.integers(0, 2**32 - 1))
    def test_bookkeeping_matches_balances(self, n1, n2, money1, money2, kind,
                                          delta, floor, migration_rate, events, seed):
        ens1, ens2 = init_ensemble(n1, money1), init_ensemble(n2, money2)
        try:
            report = couple_systems(ens1, ens2, ExchangeRule(kind, delta, floor),
                                    events, migration_rate, seed=seed)
        except DomainError:
            return
        assert ens1.n + ens2.n == n1 + n2
        assert ens1.total + ens2.total == money1 + money2
        assert report.delta_money == money1 - ens1.total
        assert report.delta_agents == n1 - ens1.n
        assert report.t1_final == ens1.total / ens1.n
        assert report.t2_final == ens2.total / ens2.n
        assert ens1.balances.min() >= floor and ens2.balances.min() >= floor
        assert report.exchanges_accepted + report.migrations_accepted <= events

    def test_drawn_index_stays_below_length(self):
        # an index int(u * n) is drawn from u in [0, 1); the largest u that
        # Generator.random returns is the double just below 1
        u = float(np.nextafter(1.0, 0.0))
        for k in range(1, 41):
            for n in (2**k - 1, 2**k, 2**k + 1):
                assert int(u * n) == n - 1

    def test_draw_memory_flat_in_events(self):
        def peak(events):
            ens1, ens2 = init_ensemble(2, 20), init_ensemble(2, 20)
            tracemalloc.start()
            try:
                couple_systems(ens1, ens2, ExchangeRule(RULE_UNIFORM, delta=4),
                               events, 0.0, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = kinetic._BLOCK_EVENTS
        assert peak(4 * block + 17) <= 1.5 * peak(block)

    def test_exchange_relaxes_pooled_balances_to_exponential(self):
        # Exchange-only coupling is symmetric in every ordered cross pair,
        # so the pooled 1000 balances relax to the exponential at the
        # pooled T = (400*80 + 600*20)/1000 = 44.  The threshold is the
        # 0.1% tail of the KS distance of 1000 independent draws from that
        # exponential: over 4 000 such replicas the median was 0.024 and
        # the 99.9th percentile 0.057 (Kolmogorov's asymptotic value is
        # 1.95/sqrt(1000) = 0.062).  Over 200 replica seeds of this
        # protocol the coupled state's distance had median 0.022 and
        # maximum 0.046, and the two-temperature start's had median 0.104
        # and minimum 0.072, so the start must fail the same threshold.
        ks_threshold = 0.06
        ens1 = _equilibrated(400, 80, seed=11)
        ens2 = _equilibrated(600, 20, seed=12)
        pooled = np.concatenate([ens1.balances, ens2.balances])
        assert lattice_ks(pooled, 44.0) > ks_threshold
        couple_systems(ens1, ens2, ExchangeRule(RULE_UNIFORM, delta=88),
                       400_000, 0.0, seed=13)
        pooled = np.concatenate([ens1.balances, ens2.balances])
        assert lattice_ks(pooled, 44.0) < ks_threshold
        # each system settles at the pooled T as well: over 100 replica
        # seeds system 1 ended at 44.1 +- 1.5 (range 38.0 to 46.9)
        assert abs(ens1.total / ens1.n - 44.0) < 10.0


class TestCycle:
    def test_rectangle_area(self):
        cycle = CycleSpec(p1=2, p2=1, v1=0, v2=5, t1=3, t2=2)
        profit, _ = cycle_profit_and_rate(cycle)
        assert profit == 5.0

    def test_equal_temperatures_no_arbitrage(self):
        cycle = CycleSpec(p1=2, p2=1, v1=0, v2=5, t1=2, t2=2)
        _, rate = cycle_profit_and_rate(cycle)
        assert rate == 0.0

    def test_rate_from_temperature_ratio(self):
        cycle = CycleSpec(p1=2, p2=1, v1=1, v2=4, t1=3, t2=2)
        _, rate = cycle_profit_and_rate(cycle)
        assert rate == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(p1=1, p2=1, v1=0, v2=5, t1=3, t2=2),     # p1 must exceed p2
        dict(p1=2, p2=1, v1=5, v2=5, t1=3, t2=2),     # v2 must exceed v1
        dict(p1=2, p2=1, v1=0, v2=5, t1=3, t2=0),     # t2 positive
        dict(p1=2, p2=1, v1=-1, v2=5, t1=3, t2=2),    # v1 non-negative
        # accepted before: an infinite field, or a profit or rate beyond a float
        pytest.param(dict(p1=math.inf, p2=1, v1=0, v2=5, t1=3, t2=2), id="p1-inf"),
        pytest.param(dict(p1=2, p2=1, v1=0, v2=math.inf, t1=3, t2=2), id="v2-inf"),
        pytest.param(dict(p1=2, p2=1, v1=0, v2=5, t1=math.inf, t2=2), id="t1-inf"),
        pytest.param(dict(p1=1e308, p2=1, v1=0, v2=1e308, t1=100, t2=50), id="profit-inf"),
        pytest.param(dict(p1=2, p2=1, v1=0, v2=5, t1=1e308, t2=1e-308), id="rate-inf"),
    ])
    def test_invalid_cycles_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CycleSpec(**kwargs)

    @pytest.mark.parametrize("field", ["p1", "p2", "v1", "v2", "t1", "t2"])
    def test_nan_rejected(self, field):
        kwargs = dict(p1=2, p2=1, v1=0, v2=5, t1=3, t2=2)
        kwargs[field] = math.nan
        with pytest.raises(DomainError):
            CycleSpec(**kwargs)
