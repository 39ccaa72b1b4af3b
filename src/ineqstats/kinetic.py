"""Monte-Carlo simulation of pairwise money exchange.

Money is held in integer quanta so the total is conserved exactly, step
by step, including debt mode (a negative floor).  Two exchange rules are
provided, both of which satisfy detailed balance with respect to the
uniform measure on the conserved-sum lattice and therefore relax to the
exponential (Boltzmann-Gibbs) balance distribution:

``fixed``
    the transfer is exactly ``delta`` quanta;
``uniform``
    the transfer is drawn uniformly from {1, ..., delta}, independent of
    the payer's balance.

In both rules a transfer that would push the payer below the floor is
rejected and the state left unchanged.  (Drawing the amount from the
payer's own balance instead would break detailed balance and relax to a
visibly non-exponential state, so that variant is deliberately not
offered.)

``run_simulation`` executes exchange attempts in rounds of N//2 disjoint
pairs: a round shuffles the balances in place and position k pays position
N//2 + k, so agent order after a run is a random relabelling.  Within a
round the pairs share no agent, so the round is equivalent to N//2
sequential steps; the batching exists purely so that 1e8 attempts
vectorise to seconds.  The amounts are drawn a block of rounds at a time.
``couple_systems`` runs its events one at a time, but draws their random
numbers up front, a block of events at a time.  Both take ``seed`` as an
int, None or a ``numpy.random.Generator``; a Generator is used as given,
so one generator can drive several calls in turn.

Balances are int64.  Rules and ensembles whose reachable balances would
not fit are rejected up front, so no balance can wrap.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import ConfigurationError, DomainError, FormatError
from .io import whole_number, whole_numbers

__all__ = [
    "RULE_FIXED",
    "RULE_UNIFORM",
    "ExchangeRule",
    "AgentEnsemble",
    "BinnedHistogram",
    "CycleSpec",
    "FluxReport",
    "SimulationConfig",
    "CoupledConfig",
    "Trajectory",
    "init_ensemble",
    "run_from_config",
    "run_simulation",
    "entropy",
    "temperature_and_potential",
    "couple_systems",
    "cycle_profit_and_rate",
]

RULE_FIXED = "fixed"
RULE_UNIFORM = "uniform"

_INT64 = np.iinfo(np.int64)
MAX_AGENTS = 10 ** 8   # 800 MB of balances; larger ensembles are refused
# numpy refuses arrays of more than intp-max bytes
_MAX_BINS = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


@dataclass(frozen=True)
class ExchangeRule:
    """Transfer rule: kind in {fixed, uniform}, amount scale ``delta``
    (exact amount for fixed, upper bound for uniform) and the minimum allowed
    balance ``floor`` (0, or negative in debt mode), both whole numbers."""

    kind: str
    delta: int = 1
    floor: int = 0

    def __post_init__(self):
        for name in ("delta", "floor"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.kind not in (RULE_FIXED, RULE_UNIFORM):
            raise DomainError(f"unknown exchange rule {self.kind!r}")
        if self.delta < 1:
            raise DomainError("delta must be at least one quantum")
        if self.floor > 0:
            raise DomainError("floor must be <= 0")
        # the payer test computes balance - amount >= floor - delta
        if self.floor - self.delta < _INT64.min:
            raise DomainError(f"delta {self.delta} and floor {self.floor} quanta "
                              "do not fit 64-bit balances")


def _check_headroom(total: int, n: int, floor: int) -> int:
    """Reject money that could wrap a balance, and return the largest
    reachable balance: with every other agent at the floor, one agent
    holds total - (n-1)*floor."""
    reach = total - (n - 1) * floor
    if reach > _INT64.max:
        raise DomainError(f"total money {total} quanta over {n} agents at floor "
                          f"{floor} reaches beyond 64-bit balances")
    return reach


class AgentEnsemble:
    """Mutable collection of per-agent balances in integer quanta."""

    def __init__(self, balances):
        arr = whole_numbers(balances, "balances")
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("balances must be a non-empty 1-d sequence")
        self.balances = arr

    @property
    def n(self) -> int:
        return self.balances.size

    @property
    def total(self) -> int:
        return int(self.balances.sum())

    def copy(self) -> "AgentEnsemble":
        return AgentEnsemble(self.balances.copy())

    def __repr__(self):
        return f"AgentEnsemble(n={self.n}, total={self.total})"


def init_ensemble(n_agents: int, total_quanta: int) -> AgentEnsemble:
    """Equal division start: each agent gets total//n quanta and the
    remainder goes one quantum each to the first agents."""
    n_agents = whole_number(n_agents, "n_agents")
    total_quanta = whole_number(total_quanta, "total_quanta")
    if n_agents < 1:
        raise DomainError("need at least one agent")
    if n_agents > MAX_AGENTS:
        raise ConfigurationError(f"{n_agents} agents exceed the ceiling of {MAX_AGENTS}")
    if total_quanta < 0:
        raise DomainError("total money must be non-negative")
    if total_quanta > _INT64.max:
        raise DomainError(f"total money {total_quanta} quanta does not fit a "
                          "64-bit balance")
    base, rem = divmod(total_quanta, n_agents)
    balances = np.full(n_agents, base, dtype=np.int64)
    balances[:rem] += 1
    return AgentEnsemble(balances)


def _draw_amounts(rule: ExchangeRule, rng: np.random.Generator,
                  size: int | tuple[int, int]) -> np.ndarray:
    if rule.kind == RULE_FIXED:
        return np.full(size, rule.delta, dtype=np.int64)
    return rng.integers(1, rule.delta + 1, size=size)


def _run_round(balances: np.ndarray, amounts: np.ndarray, floor: int,
               rng: np.random.Generator) -> None:
    """Shuffle the balances, then position k pays amounts[k] (overwritten) to N//2 + k."""
    rng.shuffle(balances)
    half = amounts.size
    paid = balances[:half]
    amounts *= paid - amounts >= floor   # a rejected transfer moves 0
    paid -= amounts
    balances[half:2 * half] += amounts


@dataclass
class BinnedHistogram:
    """Occupation counts over bins one quantum wide, starting at
    ``origin`` (the floor in debt mode)."""

    counts: np.ndarray
    origin: float = 0.0

    def __post_init__(self):
        self.counts = whole_numbers(self.counts, "bin counts")
        if np.any(self.counts < 0):
            raise DomainError("bin counts must be non-negative")
        if not -math.inf < self.origin < math.inf:
            raise DomainError(f"histogram origin must be a finite number; got {self.origin!r}")

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_ensemble(cls, ens: AgentEnsemble, origin: int) -> "BinnedHistogram":
        if int(ens.balances.min()) < origin:
            raise DomainError("origin must not exceed the minimum balance")
        n_bins = int(ens.balances.max()) - origin + 1
        if n_bins > _MAX_BINS:
            raise DomainError(f"a histogram of {n_bins} one-quantum bins "
                              "cannot be allocated")
        return cls(np.bincount(ens.balances - origin), float(origin))

    def bin_lowers(self) -> np.ndarray:
        return self.origin + np.arange(self.counts.size)


def entropy(hist: BinnedHistogram) -> float:
    """S = -sum_k N_k ln(N_k / N), with 0 ln 0 = 0."""
    n = hist.n_total
    if n < 1:
        raise DomainError("entropy of an empty histogram is undefined")
    nz = hist.counts[hist.counts > 0].astype(float)
    return float(-(nz * np.log(nz / n)).sum()) + 0.0   # avoid -0.0


def temperature_and_potential(ens: AgentEnsemble, m_star: float = 1.0) -> tuple[float, float]:
    """Money temperature T = M/N and chemical potential mu = -T ln(T/m*).

    ``m_star`` is the money value of one quantum (the width of a
    histogram bin); T and mu come back in the same money units.
    """
    if not 0 < m_star < math.inf:
        raise DomainError("quantum size must be positive and finite")
    if ens.total <= 0:
        raise DomainError("chemical potential undefined for non-positive total money")
    T = ens.total / ens.n * m_star
    if not 0 < T < math.inf:
        raise DomainError(f"money temperature {T!r} is not a positive finite float")
    mu = -T * math.log(T / m_star)
    if not math.isfinite(mu):
        raise DomainError(f"chemical potential at T = {T!r} overflows a float")
    return T, mu


def _migration_rate(rate) -> float:
    if isinstance(rate, bool) or not isinstance(rate, Real) or not 0 <= rate <= 1:
        raise DomainError(f"migration rate must lie in [0, 1]; got {rate!r}")
    return float(rate)


def _generator(seed) -> np.random.Generator:
    """A Generator as given, or a fresh one from None or a whole-number seed >= 0."""
    if seed is not None and not isinstance(seed, np.random.Generator):
        seed = whole_number(seed, "seed")
        if seed < 0:
            raise DomainError(f"seed must be non-negative; got {seed}")
    return np.random.default_rng(seed)


def _check_checkpoint_every(checkpoint_every) -> int | None:
    if checkpoint_every is None:
        return None
    checkpoint_every = whole_number(checkpoint_every, "checkpoint_every")
    if checkpoint_every < 1:
        raise ConfigurationError(
            f"checkpoint interval must be at least one attempt; got {checkpoint_every}")
    return checkpoint_every


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Complete description of one simulation run; its ``asdict`` is config.json.

    A ``delta`` of None is resolved on construction: to 1 for the fixed
    rule and to twice the average balance for the uniform rule.
    ``quantum_value`` is the money value of one quantum and only scales
    reported outputs.
    """

    n_agents: int
    total_money_quanta: int
    quantum_value: float = 1.0
    rule: str = RULE_UNIFORM
    delta: int | None = None
    floor: int = 0
    steps: int
    seed: int
    checkpoint_every: int | None = None

    def __post_init__(self):
        for name in ("n_agents", "total_money_quanta", "steps", "seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if isinstance(self.quantum_value, bool) or not isinstance(self.quantum_value, Real):
            raise FormatError(f"quantum_value must be a number; got {self.quantum_value!r}")
        if self.n_agents < 1:
            raise DomainError("need at least one agent")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative; got {self.seed}")
        object.__setattr__(self, "checkpoint_every",
                           _check_checkpoint_every(self.checkpoint_every))
        # the rule checks rule, delta and floor; a missing delta is 1 until the
        # headroom check bounds the total that the uniform default grows with
        rule = ExchangeRule(self.rule, 1 if self.delta is None else self.delta, self.floor)
        reach = _check_headroom(self.total_money_quanta, self.n_agents, rule.floor)
        # no scaled output exceeds the reach in quanta times the quantum value;
        # compared before float(), which a huge JSON integer would overflow
        if not 0 < self.quantum_value * max(reach, 1) <= sys.float_info.max:
            raise DomainError(f"quantum value {self.quantum_value!r} must be positive, and "
                              f"the largest reachable balance, {reach} quanta, finite in money")
        object.__setattr__(self, "quantum_value", float(self.quantum_value))
        if self.delta is None and self.rule == RULE_UNIFORM:
            rule = ExchangeRule(self.rule, max(1, round(2 * self.total_money_quanta
                                                         / self.n_agents)), rule.floor)
        object.__setattr__(self, "delta", rule.delta)
        object.__setattr__(self, "floor", rule.floor)

    def exchange_rule(self) -> ExchangeRule:
        return ExchangeRule(self.rule, delta=self.delta, floor=self.floor)


@dataclass(frozen=True, kw_only=True)
class CoupledConfig:
    """Complete, serialisable description of one coupled run: system 1's
    run fields as in SimulationConfig, the second system, and the
    ``events`` and ``migration_rate`` of ``couple_systems``.  Both systems
    relax under system 1's rule before they are coupled.
    """

    n_agents: int
    total_money_quanta: int
    rule: str = RULE_UNIFORM
    delta: int | None = None
    floor: int = 0
    steps: int
    seed: int
    n_agents2: int
    total_money_quanta2: int
    events: int = 1000
    migration_rate: float = 0.0

    exchange_rule = SimulationConfig.exchange_rule

    def __post_init__(self):
        shared = [f.name for f in fields(self)
                  if f.name in SimulationConfig.__dataclass_fields__]
        system1 = SimulationConfig(**{name: getattr(self, name) for name in shared})
        for name in shared:   # whole numbers, and delta resolved
            object.__setattr__(self, name, getattr(system1, name))
        for name in ("n_agents2", "total_money_quanta2", "events"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        object.__setattr__(self, "migration_rate", _migration_rate(self.migration_rate))


def run_from_config(config: SimulationConfig) -> "Trajectory":
    """Build the ensemble from the config and run it to completion."""
    ens = init_ensemble(config.n_agents, config.total_money_quanta)
    return run_simulation(ens, config.exchange_rule(), config.steps,
                          checkpoint_every=config.checkpoint_every,
                          seed=config.seed)


@dataclass
class Trajectory:
    """Checkpoint record of a simulation run."""

    steps: np.ndarray
    entropy: np.ndarray
    temperature: np.ndarray
    final_histogram: BinnedHistogram
    ensemble: AgentEnsemble


_BLOCK_AMOUNTS = 2 ** 14   # most attempts per block of drawn amounts (128 KB)


def run_simulation(ens: AgentEnsemble, rule: ExchangeRule, steps: int,
                   checkpoint_every: int | None = None, *,
                   seed: int | np.random.Generator | None = None) -> Trajectory:
    """Run ``steps`` exchange attempts on the ensemble (mutated in place).

    Attempts execute in rounds of N//2 disjoint pairs, each of which shuffles
    the balances in place, so agent order after a run is a random
    relabelling.  The amounts are drawn in blocks of whole rounds, at most
    ``_BLOCK_AMOUNTS`` attempts unless one round is more.  Checkpoints land at
    the start, every max(1, checkpoint_every // (N//2)) rounds, and at the
    end of the run: the whole rounds that fit in ``checkpoint_every``
    attempts, or one round when none fits (N = 10, ``checkpoint_every=7``
    and 30 steps checkpoint at 0, 5, 10, ..., 30).  Each records the
    entropy of the balance histogram (bins one quantum wide, anchored at
    the rule floor) and the temperature M/N in quanta.  The step counts
    reported are exact attempt counts.  Total money is asserted at every
    checkpoint.  The last checkpoint's histogram is returned as
    ``final_histogram``.

    ``seed`` is a whole number >= 0 or None, from which a fresh generator
    is built, or a ``numpy.random.Generator``, which is used (and
    advanced) as given.
    """
    steps = whole_number(steps, "steps")
    if steps < 1:
        raise DomainError("need at least one step")
    if ens.n < 2:
        raise DomainError("need at least two agents to trade")
    _check_headroom(ens.total, ens.n, rule.floor)
    checkpoint_every = _check_checkpoint_every(checkpoint_every)
    rng = _generator(seed)
    per_round = ens.n // 2
    n_rounds = -(-steps // per_round)  # ceil
    if checkpoint_every is None:
        checkpoint_rounds = n_rounds
    else:
        checkpoint_rounds = max(1, checkpoint_every // per_round)

    block_rounds = max(1, _BLOCK_AMOUNTS // per_round)
    total_before = ens.total
    balances = ens.balances

    records: list[tuple[int, float, float]] = []
    done = 0
    while True:
        hist = BinnedHistogram.from_ensemble(ens, origin=rule.floor)
        records.append((done * per_round, entropy(hist), ens.total / ens.n))
        if done == n_rounds:
            break
        burst = min(checkpoint_rounds, n_rounds - done)
        for start in range(0, burst, block_rounds):
            rounds = min(block_rounds, burst - start)
            for amounts in _draw_amounts(rule, rng, (rounds, per_round)):
                _run_round(balances, amounts, rule.floor, rng)
            del amounts   # the last row holds the block; free it before the next
        done += burst
        if ens.total != total_before:
            raise ConfigurationError("money conservation violated; this is a bug")
        if np.any(balances < rule.floor):
            raise ConfigurationError("floor violated; this is a bug")

    arr = np.asarray(records, dtype=float)
    return Trajectory(
        steps=arr[:, 0].astype(np.int64),
        entropy=arr[:, 1],
        temperature=arr[:, 2],
        final_histogram=hist,
        ensemble=ens,
    )


# ---------------------------------------------------------------------------
# Coupled systems: money flux and migration
# ---------------------------------------------------------------------------


@dataclass
class FluxReport:
    """Net fluxes from system 1 to system 2 and the linear-response
    entropy-change estimate computed with the initial temperatures."""

    delta_money: int
    delta_agents: int
    delta_entropy_estimate: float
    t1_initial: float
    t2_initial: float
    t1_final: float
    t2_final: float
    events: int
    exchanges_accepted: int
    migrations_accepted: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


# Events per block of up-front draws in ``couple_systems``: enough that
# the numpy calls cost little per event, few enough that the drawn lists
# (about 130 bytes an event, 2 MB a block) stay small however many
# events run.
_BLOCK_EVENTS = 2 ** 14


def _migration_entropy(t_src: float, t_dst: float) -> float:
    """ln(T_dst/T_src), the population term of the entropy gradient."""
    if t_src <= 0 or t_dst <= 0:
        raise DomainError(
            f"migration between money temperatures {t_src:g} -> {t_dst:g}: "
            "ln(T_dst/T_src) needs both positive")
    return math.log(t_dst / t_src)


def couple_systems(ens1: AgentEnsemble, ens2: AgentEnsemble,
                   rule: ExchangeRule, steps: int, migration_rate: float,
                   *, seed: int | np.random.Generator | None = None) -> FluxReport:
    """Couple two ensembles for ``steps`` events and report net fluxes.

    Each event is a migration with probability ``migration_rate`` (a
    uniformly chosen agent attempts to move to the other system, carrying
    its balance) and otherwise a cross-system money exchange (an ordered
    cross pair chosen uniformly, transfer per ``rule``).

    A migration is accepted with the Metropolis probability built from
    the population term of the entropy gradient, ln(T_dst/T_src) at the
    current temperatures; this drives the net agent flow toward the
    higher-temperature system, i.e. from high to low chemical potential.
    The money term of the gradient belongs to the exchange channel and is
    deliberately not charged to migrations.

    The random numbers are drawn up front, ``_BLOCK_EVENTS`` events at a
    time: per event the kind (a migration when a uniform falls below
    ``migration_rate``), three uniforms u0, u1, u2 and a transfer amount.
    A migration moves agent int(u0 (n1 + n2)) and is accepted when
    u1 < exp(dS); an exchange takes the payer side from u0 < 1/2, the
    payer from u1 and the receiver from u2.  The events themselves still
    run one at a time.

    Flux signs are 1 -> 2 positive.  The entropy estimate is
    (1/T2 - 1/T1) dM + ln(T2/T1) dN at the initial temperatures, the
    differential (linear-response) form; measure while the temperature
    gap persists, roughly steps of order the system size.

    ``seed`` is taken as by ``run_simulation``.
    """
    migration_rate = _migration_rate(migration_rate)
    steps = whole_number(steps, "steps")
    if steps < 1:
        raise DomainError("need at least one event")
    rng = _generator(seed)

    b1 = ens1.balances.tolist()
    b2 = ens2.balances.tolist()
    m1_0, m2_0 = sum(b1), sum(b2)
    t1_0, t2_0 = m1_0 / len(b1), m2_0 / len(b2)
    if t1_0 <= 0 or t2_0 <= 0:
        raise DomainError("both systems need positive money temperatures")

    _check_headroom(m1_0 + m2_0, len(b1) + len(b2), rule.floor)

    # s is the source side of a move; sign[s] makes it a flux from 1 to 2
    systems = (b1, b2)
    sign = (1, -1)
    n_total = len(b1) + len(b2)
    floor = rule.floor
    d_money = 0
    d_agents = 0
    n_exchanges = 0
    n_migrations = 0
    for start in range(0, steps, _BLOCK_EVENTS):
        size = min(_BLOCK_EVENTS, steps - start)
        migrates = (rng.random(size) < migration_rate).tolist()
        u0, u1, u2 = rng.random((3, size)).tolist()
        amounts = _draw_amounts(rule, rng, size).tolist()
        for migrate, x0, x1, x2, amount in zip(migrates, u0, u1, u2, amounts):
            if migrate:
                k = int(x0 * n_total)
                s = int(k >= len(b1))
                src, dst = systems[s], systems[1 - s]
                if len(src) < 2:
                    continue
                # money only ever changes system as flux, so the current
                # totals are M1 = M1(0) - dM and M2 = M2(0) + dM
                t = ((m1_0 - d_money) / len(b1), (m2_0 + d_money) / len(b2))
                ds = _migration_entropy(t[s], t[1 - s])
                if ds >= 0 or x1 < math.exp(ds):
                    i = k - s * len(b1)
                    m = src[i]
                    src[i] = src[-1]
                    src.pop()
                    dst.append(m)
                    d_agents += sign[s]
                    d_money += sign[s] * m
                    n_migrations += 1
            else:
                # ordered cross pair, uniform: payer side is a fair coin
                s = 0 if x0 < 0.5 else 1
                src, dst = systems[s], systems[1 - s]
                i = int(x1 * len(src))
                if src[i] - amount >= floor:
                    src[i] -= amount
                    dst[int(x2 * len(dst))] += amount
                    d_money += sign[s] * amount
                    n_exchanges += 1
        # release this block's draws before the next block's exist, so the
        # extra memory stays one block for any number of events
        del migrates, u0, u1, u2, amounts

    ens1.balances = np.asarray(b1, dtype=np.int64)
    ens2.balances = np.asarray(b2, dtype=np.int64)
    ds_est = (1.0 / t2_0 - 1.0 / t1_0) * d_money + math.log(t2_0 / t1_0) * d_agents
    return FluxReport(
        delta_money=d_money,
        delta_agents=d_agents,
        delta_entropy_estimate=ds_est,
        t1_initial=t1_0,
        t2_initial=t2_0,
        t1_final=(m1_0 - d_money) / len(b1),
        t2_final=(m2_0 + d_money) / len(b2),
        events=steps,
        exchanges_accepted=n_exchanges,
        migrations_accepted=n_migrations,
    )


# ---------------------------------------------------------------------------
# Thermal-cycle accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleSpec:
    """Closed trading cycle: buy volume v2 - v1 at price p2, sell at p1,
    between systems at temperatures t1 > t2."""

    p1: float
    p2: float
    v1: float
    v2: float
    t1: float
    t2: float

    def __post_init__(self):
        if not self.p1 > self.p2 > 0:
            raise DomainError("need prices p1 > p2 > 0")
        if not self.v2 > self.v1 >= 0:
            raise DomainError("need volumes v2 > v1 >= 0")
        if not self.t1 >= self.t2 > 0:
            raise DomainError("need temperatures t1 >= t2 > 0")
        # an infinite field, or finite ones whose products overflow
        if not all(map(math.isfinite, cycle_profit_and_rate(self))):
            raise DomainError("need a finite profit and profit rate")


def cycle_profit_and_rate(cycle: CycleSpec) -> tuple[float, float]:
    """Wealth gained per cycle, (p1-p2)(v2-v1), and the profit rate
    (t1-t2)/t2 set by the temperature ratio (the no-arbitrage bound)."""
    profit = (cycle.p1 - cycle.p2) * (cycle.v2 - cycle.v1)
    rate = (cycle.t1 - cycle.t2) / cycle.t2
    return profit, rate
