"""Event-level Monte Carlo of the slotted cell.

This simulator shares no closed forms with the analytic chain: the
primary phase is an explicitly sampled alternating renewal process,
arrivals are Poisson counts with uniform timestamps inside each slot,
and sensing/policy coins are drawn per slot.  It exists to validate the
chain, so it only reproduces the slot mechanics:

* the decision at a slot boundary sees the true phase and the current
  queue (including any in-service packet),
* arrivals are admitted in timestamp order while the buffer has room,
* a serving slot delivers its head-of-line packet at the slot end iff
  the primary stayed OFF for the entire slot; the packet's sojourn is
  measured from its arrival timestamp to that slot end.

Randomness comes from numpy's PCG64; replication r of a run seeded s
uses SeedSequence([s, r]) split into one stream for the phase process
and one for everything else, so results are reproducible bit-for-bit
for a given seed regardless of how replications are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import StateSpace, enumerate_states
from .errors import InvalidParameterError
from .params import PnpModel, SystemParams, activity_factor
from .slot import Action, Phase

GENERATOR_NAME = "PCG64"

#: Batch count for within-run standard errors (batch means absorb the
#: slot-to-slot autocorrelation a naive binomial SE would ignore).
NUM_BATCHES = 32

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    warmup_slots defaults to 10% of the horizon; statistics exclude the
    warmup window.  replications > 1 reruns the model with derived seeds
    and pools the results.
    """

    params: SystemParams
    horizon_slots: int
    seed: int
    warmup_slots: int | None = None
    replications: int = 1

    def __post_init__(self):
        if self.horizon_slots < 1:
            raise InvalidParameterError("horizon_slots must be >= 1")
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        wu = self.resolved_warmup
        if not 0 <= wu < self.horizon_slots:
            raise InvalidParameterError("warmup must satisfy 0 <= warmup < horizon")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_slots is None:
            return self.horizon_slots // 10
        return self.warmup_slots


class Counts(NamedTuple):
    """Packet bookkeeping over the measured window.

    served counts only packets that both arrived and were cleared after
    warmup, which keeps served <= admitted an exact identity; slot-level
    service successes (used for the carried load) are tallied separately.
    """

    generated: int
    admitted: int
    dropped: int
    served: int


@dataclass(frozen=True)
class ReplicationResult:
    """Point estimates of a single replication."""

    rep_index: int
    counts: Counts
    drop_prob_hat: float
    drop_prob_se: float
    mean_sojourn_hat: float
    mean_sojourn_se: float
    interference_hat: float
    interference_se: float
    carried_load_hat: float
    charge_fraction_hat: float


@dataclass(frozen=True)
class SimResult:
    """Pooled simulation output.

    Histograms are pmfs: slot_state_histogram over the canonical state
    order of the analytic chain, post_departure_histogram over the queue
    left behind at departures (0..K-1).  Standard errors come from batch
    means over the measured window (all replications concatenated).
    """

    drop_prob_hat: float
    drop_prob_se: float
    mean_sojourn_hat: float
    mean_sojourn_se: float
    interference_hat: float
    interference_se: float
    carried_load_hat: float
    charge_fraction_hat: float
    slot_state_histogram: np.ndarray
    post_departure_histogram: np.ndarray
    counts: Counts
    space: StateSpace
    seed: int
    generator: str
    horizon_slots: int
    warmup_slots: int
    replications: int
    reps: tuple[ReplicationResult, ...]

    def __post_init__(self):
        c = self.counts
        if c.admitted != c.generated - c.dropped:
            raise InvalidParameterError("count identity admitted = generated - dropped violated")
        if c.served > c.admitted:
            raise InvalidParameterError("served exceeds admitted")
        if abs(self.slot_state_histogram.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("slot-state histogram must sum to 1")
        if c.served > 0 and abs(self.post_departure_histogram.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("post-departure histogram must sum to 1")


class _DurationFeed:
    """Buffered exponential phase durations, one stream per phase."""

    __slots__ = ("_rng", "_scale", "_buf", "_pos", "_block")

    def __init__(self, rng: np.random.Generator, mu_on: float, mu_off: float,
                 block: int = 8192):
        self._rng = rng
        self._scale = (1.0 / mu_off, 1.0 / mu_on)  # index = phase being held
        self._buf: list[list[float]] = [[], []]
        self._pos = [0, 0]
        self._block = block

    def next(self, phase: int) -> float:
        pos = self._pos[phase]
        buf = self._buf[phase]
        if pos >= len(buf):
            buf = self._rng.exponential(self._scale[phase], self._block).tolist()
            self._buf[phase] = buf
            pos = 0
        self._pos[phase] = pos + 1
        return buf[pos]


class _Tally:
    """Raw accumulators of one replication; merging is associative."""

    __slots__ = ("hist", "post_dep", "b_gen", "b_drop", "b_interf", "b_serve",
                 "b_charge", "b_slots", "b_soj_sum", "b_soj_n", "served_tagged")

    def __init__(self, n_states: int, k_cap: int, n_batches: int):
        self.hist = np.zeros(n_states, dtype=np.int64)
        self.post_dep = np.zeros(k_cap, dtype=np.int64)
        self.b_gen = np.zeros(n_batches, dtype=np.int64)
        self.b_drop = np.zeros(n_batches, dtype=np.int64)
        self.b_interf = np.zeros(n_batches, dtype=np.int64)
        self.b_serve = np.zeros(n_batches, dtype=np.int64)
        self.b_charge = np.zeros(n_batches, dtype=np.int64)
        self.b_slots = np.zeros(n_batches, dtype=np.int64)
        self.b_soj_sum = np.zeros(n_batches)
        self.b_soj_n = np.zeros(n_batches, dtype=np.int64)
        self.served_tagged = 0

    def merge(self, other: "_Tally") -> "_Tally":
        out = _Tally(len(self.hist), len(self.post_dep), 0)
        for name in ("hist", "post_dep"):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        for name in ("b_gen", "b_drop", "b_interf", "b_serve", "b_charge",
                     "b_slots", "b_soj_sum", "b_soj_n"):
            setattr(out, name, np.concatenate([getattr(self, name), getattr(other, name)]))
        out.served_tagged = self.served_tagged + other.served_tagged
        return out


def _simulate_one(params: SystemParams, horizon: int, warmup: int,
                  seed: int, rep_index: int) -> _Tally:
    ss = np.random.SeedSequence([seed, rep_index])
    phase_ss, flow_ss = ss.spawn(2)
    phase_rng = np.random.Generator(np.random.PCG64(phase_ss))
    flow_rng = np.random.Generator(np.random.PCG64(flow_ss))

    tr = params.traffic
    k_cap = tr.capacity_k
    d = tr.slot_d
    mean_per_slot = tr.mean_arrivals_per_slot
    pd_, pf = params.sensing.p_detect, params.sensing.p_false_alarm
    theta, xi = params.policy.theta_idle, params.policy.xi_charge
    busy_by_phase = (pf, pd_)
    space = enumerate_states(k_cap)
    measured = horizon - warmup
    meas_t0 = warmup * d

    tally = _Tally(space.size, k_cap, NUM_BATCHES)
    hist = [0] * space.size
    post_dep = [0] * k_cap
    b_gen = [0] * NUM_BATCHES
    b_drop = [0] * NUM_BATCHES
    b_interf = [0] * NUM_BATCHES
    b_serve = [0] * NUM_BATCHES
    b_charge = [0] * NUM_BATCHES
    b_slots = [0] * NUM_BATCHES
    b_soj_sum = [0.0] * NUM_BATCHES
    b_soj_n = [0] * NUM_BATCHES
    served_tagged = 0

    cur_phase = 1 if phase_rng.random() < activity_factor(params.pnp) else 0
    feed = _DurationFeed(phase_rng, params.pnp.mu_on, params.pnp.mu_off)
    next_switch = feed.next(cur_phase)

    fifo: list[float] = []
    head = 0
    qlen = 0

    for s0 in range(0, horizon, _CHUNK):
        chunk = min(_CHUNK, horizon - s0)
        n_arr = flow_rng.poisson(mean_per_slot, chunk)
        total = int(n_arr.sum())
        if total:
            slots_f = np.repeat(np.arange(s0, s0 + chunk, dtype=np.float64), n_arr)
            ts = (slots_f + flow_rng.random(total)) * d
            ts.sort()
            ts_l = ts.tolist()
        else:
            flow_rng.random(0)
            ts_l = []
        offsets = np.zeros(chunk + 1, dtype=np.int64)
        np.cumsum(n_arr, out=offsets[1:])
        sense_u = flow_rng.random(chunk)
        theta_u = flow_rng.random(chunk)
        xi_u = flow_rng.random(chunk)
        # Action before considering sensing/queue: 0 idle coin, 2 charge, 1 serve.
        pre_act = np.where(theta_u < theta, 0, np.where(xi_u < xi, 2, 1))
        bat = ((np.arange(s0, s0 + chunk, dtype=np.int64) - warmup) * NUM_BATCHES) // measured

        n_arr_l = n_arr.tolist()
        off_l = offsets.tolist()
        sense_l = sense_u.tolist()
        act_l = pre_act.tolist()
        bat_l = bat.tolist()

        for k in range(chunk):
            s = s0 + k
            phase = cur_phase
            slot_end = (s + 1) * d
            whole = next_switch >= slot_end
            while next_switch < slot_end:
                cur_phase = 1 - cur_phase
                next_switch += feed.next(cur_phase)

            if sense_l[k] < busy_by_phase[phase]:
                act = 0
            else:
                act = act_l[k]
                if act == 1 and qlen == 0:
                    act = 0

            meas = s >= warmup
            if meas:
                b = bat_l[k]
                b_slots[b] += 1
                if qlen == 0:
                    hist[2 * phase + (1 if act == 2 else 0)] += 1
                else:
                    hist[4 + 6 * (qlen - 1) + 3 * phase + act] += 1
                if phase and act:
                    b_interf[b] += 1
                if act == 2:
                    b_charge[b] += 1

            c = n_arr_l[k]
            if c:
                room = k_cap - qlen
                adm = c if c <= room else room
                if adm:
                    lo = off_l[k]
                    fifo.extend(ts_l[lo:lo + adm])
                    qlen += adm
                if meas:
                    b_gen[b] += c
                    if c > adm:
                        b_drop[b] += c - adm

            if act == 1 and phase == 0 and whole:
                t_arr = fifo[head]
                head += 1
                qlen -= 1
                if meas:
                    b_serve[b] += 1
                    post_dep[qlen] += 1
                    b_soj_sum[b] += slot_end - t_arr
                    b_soj_n[b] += 1
                    if t_arr >= meas_t0:
                        served_tagged += 1

        if head > 65536:
            fifo = fifo[head:]
            head = 0

    tally.hist = np.asarray(hist, dtype=np.int64)
    tally.post_dep = np.asarray(post_dep, dtype=np.int64)
    tally.b_gen = np.asarray(b_gen, dtype=np.int64)
    tally.b_drop = np.asarray(b_drop, dtype=np.int64)
    tally.b_interf = np.asarray(b_interf, dtype=np.int64)
    tally.b_serve = np.asarray(b_serve, dtype=np.int64)
    tally.b_charge = np.asarray(b_charge, dtype=np.int64)
    tally.b_slots = np.asarray(b_slots, dtype=np.int64)
    tally.b_soj_sum = np.asarray(b_soj_sum)
    tally.b_soj_n = np.asarray(b_soj_n, dtype=np.int64)
    tally.served_tagged = served_tagged
    return tally


def _ratio_stats(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    total_den = float(den.sum())
    point = float(num.sum()) / total_den if total_den > 0 else math.nan
    mask = den > 0
    k = int(mask.sum())
    if k >= 2:
        ratios = num[mask] / den[mask]
        se = float(ratios.std(ddof=1)) / math.sqrt(k)
    else:
        se = math.nan
    return point, se


def _counts_of(tally: _Tally) -> Counts:
    generated = int(tally.b_gen.sum())
    dropped = int(tally.b_drop.sum())
    return Counts(generated=generated, admitted=generated - dropped,
                  dropped=dropped, served=tally.served_tagged)


def _rep_result(tally: _Tally, rep_index: int) -> ReplicationResult:
    drop, drop_se = _ratio_stats(tally.b_drop.astype(float), tally.b_gen.astype(float))
    soj, soj_se = _ratio_stats(tally.b_soj_sum, tally.b_soj_n.astype(float))
    interf, interf_se = _ratio_stats(tally.b_interf.astype(float), tally.b_slots.astype(float))
    slots = float(tally.b_slots.sum())
    return ReplicationResult(
        rep_index=rep_index, counts=_counts_of(tally),
        drop_prob_hat=drop if not math.isnan(drop) else 0.0, drop_prob_se=drop_se,
        mean_sojourn_hat=soj, mean_sojourn_se=soj_se,
        interference_hat=interf, interference_se=interf_se,
        carried_load_hat=float(tally.b_serve.sum()) / slots,
        charge_fraction_hat=float(tally.b_charge.sum()) / slots)


def run_simulation(config: SimConfig) -> SimResult:
    """Run every replication in turn and pool the tallies.

    Each replication derives its own generator from (seed, rep_index)
    and merging follows replication order, so the result depends on the
    seed alone.
    """
    horizon = config.horizon_slots
    warmup = config.resolved_warmup
    reps = config.replications
    tallies = [_simulate_one(config.params, horizon, warmup, config.seed, r)
               for r in range(reps)]

    merged = tallies[0]
    for t in tallies[1:]:
        merged = merged.merge(t)

    space = enumerate_states(config.params.traffic.capacity_k)
    counts = _counts_of(merged)
    drop, drop_se = _ratio_stats(merged.b_drop.astype(float), merged.b_gen.astype(float))
    soj, soj_se = _ratio_stats(merged.b_soj_sum, merged.b_soj_n.astype(float))
    interf, interf_se = _ratio_stats(merged.b_interf.astype(float), merged.b_slots.astype(float))
    slots = float(merged.b_slots.sum())
    hist = merged.hist / merged.hist.sum()
    n_dep = merged.post_dep.sum()
    post = merged.post_dep / n_dep if n_dep > 0 else merged.post_dep.astype(float)

    return SimResult(
        drop_prob_hat=drop if not math.isnan(drop) else 0.0, drop_prob_se=drop_se,
        mean_sojourn_hat=soj, mean_sojourn_se=soj_se,
        interference_hat=interf, interference_se=interf_se,
        carried_load_hat=float(merged.b_serve.sum()) / slots,
        charge_fraction_hat=float(merged.b_charge.sum()) / slots,
        slot_state_histogram=hist, post_departure_histogram=post,
        counts=counts, space=space, seed=config.seed, generator=GENERATOR_NAME,
        horizon_slots=horizon, warmup_slots=warmup, replications=reps,
        reps=tuple(_rep_result(t, r) for r, t in enumerate(tallies)))


def _renewal_endpoints(rng: np.random.Generator, pnp: PnpModel, start_phase: int,
                       slot_d: float, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the end phase and whole-slot persistence of one slot.

    Pure alternating-renewal sampling: repeatedly draw the residual of
    the current phase and switch while it falls inside the slot.  Shares
    nothing with the closed-form kernel.
    """
    remaining = np.full(trials, float(slot_d))
    cur = np.full(trials, int(start_phase), dtype=np.int64)
    whole = np.ones(trials, dtype=bool)
    active = np.arange(trials)
    while active.size:
        scales = np.where(cur[active] == 1, 1.0 / pnp.mu_on, 1.0 / pnp.mu_off)
        draws = rng.exponential(scales)
        sw = draws < remaining[active]
        hit = active[sw]
        whole[hit] = False
        remaining[hit] -= draws[sw]
        cur[hit] = 1 - cur[hit]
        active = hit
    return cur, whole


@dataclass(frozen=True)
class EmpiricalKernel:
    """Monte Carlo estimate of the slot phase kernel, with binomial SEs."""

    a00: float
    a01: float
    a10: float
    a11: float
    off_persist: float
    on_persist: float
    se_a00: float
    se_a01: float
    se_a10: float
    se_a11: float
    se_off_persist: float
    se_on_persist: float
    trials: int


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def estimate_slot_kernel(pnp: PnpModel, slot_d: float, trials: int, seed: int) -> EmpiricalKernel:
    """Estimate the phase kernel by simulating `trials` slots from each phase."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    end_off, whole_off = _renewal_endpoints(rng, pnp, Phase.OFF, slot_d, trials)
    end_on, whole_on = _renewal_endpoints(rng, pnp, Phase.ON, slot_d, trials)
    a01 = float(np.count_nonzero(end_off == 1)) / trials
    a10 = float(np.count_nonzero(end_on == 0)) / trials
    offp = float(np.count_nonzero(whole_off)) / trials
    onp = float(np.count_nonzero(whole_on)) / trials
    return EmpiricalKernel(
        a00=1.0 - a01, a01=a01, a10=a10, a11=1.0 - a10,
        off_persist=offp, on_persist=onp,
        se_a00=_binom_se(a01, trials), se_a01=_binom_se(a01, trials),
        se_a10=_binom_se(a10, trials), se_a11=_binom_se(a10, trials),
        se_off_persist=_binom_se(offp, trials), se_on_persist=_binom_se(onp, trials),
        trials=trials)


@dataclass(frozen=True)
class RowEstimate:
    """Empirical pmf over destination states from one source state."""

    pmf: np.ndarray
    trials: int
    space: StateSpace


def estimate_transition_row(params: SystemParams, source: tuple[int, Phase, Action],
                            trials: int, seed: int) -> RowEstimate:
    """Monte Carlo one-slot transition row from a fixed source state.

    Simulates `trials` independent slots started in `source`: a renewal
    phase path, a Poisson arrival count capped by the free buffer, the
    head-of-line departure on a covered serving slot, and the next
    decision draw.  Destination frequencies are returned in canonical
    state order.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    tr = params.traffic
    space = enumerate_states(tr.capacity_k)
    i, phase, action = source
    space.index(i, phase, action)  # validates the triple
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    end_phase, whole = _renewal_endpoints(rng, params.pnp, phase, tr.slot_d, trials)
    n_arr = rng.poisson(tr.mean_arrivals_per_slot, trials)
    admitted = np.minimum(n_arr, tr.capacity_k - i)
    if action == Action.SERVE and phase == Phase.OFF:
        cleared = whole.astype(np.int64)
    else:
        cleared = np.zeros(trials, dtype=np.int64)
    j = i + admitted - cleared

    busy_p = np.where(end_phase == 1, params.sensing.p_detect, params.sensing.p_false_alarm)
    u_sense = rng.random(trials)
    u_theta = rng.random(trials)
    u_xi = rng.random(trials)
    go = (u_sense >= busy_p) & (u_theta >= params.policy.theta_idle)
    charge = go & (u_xi < params.policy.xi_charge)
    serve = go & ~charge & (j >= 1)
    acts = 2 * charge.astype(np.int64) + serve.astype(np.int64)

    idx = np.where(j == 0,
                   2 * end_phase + (acts == 2).astype(np.int64),
                   4 + 6 * np.maximum(j - 1, 0) + 3 * end_phase + acts)
    counts = np.bincount(idx, minlength=space.size)
    return RowEstimate(pmf=counts / trials, trials=trials, space=space)
