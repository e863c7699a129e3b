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

The slots are processed _CHUNK at a time, as arrays, and memory does
not grow with the horizon:

* the phase durations are drawn in blocks that alternate between the
  phases; their running sum gives the switch times, and counting the
  switches before each slot boundary gives every slot's starting phase
  (by parity) and whether one phase covered it;
* each chunk draws its arrival counts, in-slot timestamps and sensing,
  idle and charge coins, in that order;
* only the queue recursion q' = min(q + a, K) - [departure] runs slot
  by slot, and only on slots with an arrival or a possible departure;
  actions, the state histogram and the batch counts follow from the
  queue at each slot start;
* packets leave in FIFO order, so the m-th departure takes the m-th
  admitted timestamp, and sojourns are added to their batch sums in
  slot order.

These steps draw the same numbers and do the same floating-point
operations as a loop over slots, so the tallies equal that loop's bit
for bit (tests/test_simulate.py keeps the loop as the reference).
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
        for name in ("horizon_slots", "warmup_slots", "replications", "seed"):
            value = getattr(self, name)
            if value is None and name == "warmup_slots":
                continue
            if not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
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


#: Columns of a tally's per-batch count array.  Every measured departure
#: is both a served slot and a sojourn sample, so one column counts both.
_GEN, _DROP, _INTERF, _SERVE, _CHARGE, _SLOTS = range(6)

#: Phase durations drawn at a time for each phase.  The block size fixes
#: how the two phases' draws interleave in the stream, so it is part of
#: the result for a given seed.
_BLOCK = 8192


class _Tally(NamedTuple):
    """Raw accumulators of one or more replications.

    batches has one row of integer counts per batch (columns _GEN.._SLOTS)
    and soj_sum the matching per-batch sojourn sums; pooling replications
    stacks their batches in replication order.
    """

    hist: np.ndarray
    post_dep: np.ndarray
    batches: np.ndarray
    soj_sum: np.ndarray
    served_tagged: int


def _pool(tallies: list[_Tally]) -> _Tally:
    return _Tally(hist=sum(t.hist for t in tallies),
                  post_dep=sum(t.post_dep for t in tallies),
                  batches=np.concatenate([t.batches for t in tallies]),
                  soj_sum=np.concatenate([t.soj_sum for t in tallies]),
                  served_tagged=sum(t.served_tagged for t in tallies))


def _phase_path(rng: np.random.Generator, pnp: PnpModel, slot_d: float, horizon: int):
    """Yield the starting phase and whole-slot flag of every slot, per chunk.

    The phase alternates, so its durations are drawn in a fixed order:
    _BLOCK for the start phase, _BLOCK for the other phase, and again.
    Interleaved and summed left to right they give the switch times; a
    slot starts in the start phase iff an even number of switches came
    before its start, and stays in one phase iff none falls inside it.
    """
    start = 1 if rng.random() < activity_factor(pnp) else 0
    scale = (1.0 / pnp.mu_off, 1.0 / pnp.mu_on)  # index = phase being held

    def block(last: float) -> np.ndarray:
        dur = np.empty(2 * _BLOCK)
        dur[0::2] = rng.exponential(scale[start], _BLOCK)
        dur[1::2] = rng.exponential(scale[1 - start], _BLOCK)
        dur[0] += last
        return np.cumsum(dur)

    # Invariant: every switch before the current block precedes every
    # bound not yet counted, so a bound's count is `passed` plus its rank
    # in the first block that reaches it.
    switches, passed = block(0.0), 0
    for s0 in range(0, horizon, _CHUNK):
        bounds = np.arange(s0, min(s0 + _CHUNK, horizon) + 1) * slot_d
        before = np.empty(bounds.size, dtype=np.int64)  # switches strictly before each bound
        done = 0
        while True:
            reached = int(np.searchsorted(bounds, switches[-1], "right"))
            before[done:reached] = passed + np.searchsorted(switches, bounds[done:reached])
            done = reached
            if done == bounds.size:
                break
            passed += switches.size
            switches = block(switches[-1])
        yield start ^ (before[:-1] & 1), before[1:] == before[:-1]


def _simulate_one(params: SystemParams, horizon: int, warmup: int,
                  seed: int, rep_index: int) -> _Tally:
    ss = np.random.SeedSequence([seed, rep_index])
    phase_ss, flow_ss = ss.spawn(2)
    phase_rng = np.random.Generator(np.random.PCG64(phase_ss))
    flow_rng = np.random.Generator(np.random.PCG64(flow_ss))

    tr = params.traffic
    k_cap = tr.capacity_k
    d = tr.slot_d
    busy_by_phase = np.array([params.sensing.p_false_alarm, params.sensing.p_detect])
    theta, xi = params.policy.theta_idle, params.policy.xi_charge
    measured = horizon - warmup
    meas_t0 = warmup * d
    # First slot of each batch, then the horizon.
    edges = warmup + (np.arange(NUM_BATCHES + 1) * measured + NUM_BATCHES - 1) // NUM_BATCHES

    cells = np.zeros(6 * (k_cap + 1), dtype=np.int64)  # slots per (queue, phase, action)
    post_dep = np.zeros(k_cap, dtype=np.int64)
    batches = np.zeros((NUM_BATCHES, _SLOTS + 1), dtype=np.int64)
    soj_sum = np.zeros(NUM_BATCHES)
    served_tagged = 0
    qlen = 0
    waiting = np.empty(0)  # arrival timestamps of the queued packets, head first

    phases = _phase_path(phase_rng, params.pnp, d, horizon)
    for s0 in range(0, horizon, _CHUNK):
        chunk = min(_CHUNK, horizon - s0)
        n_arr = flow_rng.poisson(tr.mean_arrivals_per_slot, chunk)
        total = int(n_arr.sum())
        slots_f = np.repeat(np.arange(s0, s0 + chunk, dtype=np.float64), n_arr)
        ts = (slots_f + flow_rng.random(total)) * d
        ts.sort()
        sense_u = flow_rng.random(chunk)
        theta_u = flow_rng.random(chunk)
        xi_u = flow_rng.random(chunk)
        phase, whole = next(phases)

        # Action before considering the queue: 0 idle, 1 serve, 2 charge.
        act = np.where(xi_u < xi, 2, 1)
        act[(sense_u < busy_by_phase[phase]) | (theta_u < theta)] = 0
        clears = (act == 1) & (phase == 0) & whole  # departs iff the queue is nonempty

        # The queue only moves on slots with an arrival or a possible departure.
        moves = (n_arr > 0) | clears
        after = [qlen]
        append = after.append
        for c, clear in zip(n_arr[moves].tolist(), clears[moves].tolist()):
            nxt = qlen + c
            if nxt > k_cap:
                nxt = k_cap
            if clear and qlen:
                nxt -= 1
            qlen = nxt
            append(qlen)
        q = np.asarray(after)[np.cumsum(moves) - moves]  # queue at each slot start

        act[(act == 1) & (q == 0)] = 0
        adm = np.minimum(n_arr, k_cap - q)
        dep = clears & (q > 0)
        if adm.sum() < total:  # admit each slot's earliest arrivals only
            slot_of = np.repeat(np.arange(chunk), n_arr)
            rank = np.arange(total) - (np.cumsum(n_arr) - n_arr)[slot_of]
            ts = ts[rank < adm[slot_of]]
        queue = np.concatenate([waiting, ts])
        n_dep = int(np.count_nonzero(dep))
        leaving, waiting = queue[:n_dep], queue[n_dep:]

        m0 = max(warmup - s0, 0)
        if m0 >= chunk:
            continue
        q, phase, act = q[m0:], phase[m0:], act[m0:]
        dep, n_arr, adm = dep[m0:], n_arr[m0:], adm[m0:]
        cells += np.bincount(6 * q + 3 * phase + act, minlength=cells.size)
        cut = np.clip(edges, s0 + m0, s0 + chunk) - (s0 + m0)  # batch bounds in this window
        held = np.flatnonzero(np.diff(cut))  # batches with slots in this window
        for col, per_slot in enumerate((n_arr, n_arr - adm, (phase == 1) & (act != 0),
                                        dep, act == 2)):
            batches[held, col] += np.add.reduceat(per_slot, cut[held])
        batches[:, _SLOTS] += np.diff(cut)

        # Measured departures are the chunk's last ones.  Each batch sum
        # starts from its running value and adds sojourns in slot order.
        at = np.flatnonzero(dep)
        t_arr = leaving[n_dep - at.size:]
        s_at = s0 + m0 + at
        soj = (s_at + 1) * d - t_arr
        soj_sum = np.bincount(
            np.concatenate([np.arange(NUM_BATCHES), ((s_at - warmup) * NUM_BATCHES) // measured]),
            weights=np.concatenate([soj_sum, soj]), minlength=NUM_BATCHES)
        post_dep += np.bincount((q + adm - 1)[at], minlength=k_cap)
        served_tagged += int(np.count_nonzero(t_arr >= meas_t0))

    return _Tally(hist=cells[enumerate_states(k_cap).cell], post_dep=post_dep, batches=batches,
                  soj_sum=soj_sum, served_tagged=served_tagged)


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


def _estimates(tally: _Tally) -> dict:
    """Point estimates, batch-means SEs and counts shared by reps and pools."""
    b = tally.batches.astype(float)
    drop, drop_se = _ratio_stats(b[:, _DROP], b[:, _GEN])
    soj, soj_se = _ratio_stats(tally.soj_sum, b[:, _SERVE])
    interf, interf_se = _ratio_stats(b[:, _INTERF], b[:, _SLOTS])
    total = tally.batches.sum(axis=0)
    slots = float(total[_SLOTS])
    counts = Counts(generated=int(total[_GEN]), admitted=int(total[_GEN] - total[_DROP]),
                    dropped=int(total[_DROP]), served=tally.served_tagged)
    return dict(
        counts=counts,
        drop_prob_hat=drop if not math.isnan(drop) else 0.0, drop_prob_se=drop_se,
        mean_sojourn_hat=soj, mean_sojourn_se=soj_se,
        interference_hat=interf, interference_se=interf_se,
        carried_load_hat=float(total[_SERVE]) / slots,
        charge_fraction_hat=float(total[_CHARGE]) / slots)


def run_simulation(config: SimConfig) -> SimResult:
    """Run every replication in turn and pool the tallies.

    Each replication derives its own generator from (seed, rep_index)
    and pooling follows replication order, so the result depends on the
    seed alone.
    """
    horizon = config.horizon_slots
    warmup = config.resolved_warmup
    reps = config.replications
    tallies = [_simulate_one(config.params, horizon, warmup, config.seed, r)
               for r in range(reps)]
    pooled = _pool(tallies)
    n_dep = pooled.post_dep.sum()
    post = pooled.post_dep / n_dep if n_dep > 0 else pooled.post_dep.astype(float)
    return SimResult(
        **_estimates(pooled),
        slot_state_histogram=pooled.hist / pooled.hist.sum(), post_departure_histogram=post,
        space=enumerate_states(config.params.traffic.capacity_k), seed=config.seed,
        generator=GENERATOR_NAME, horizon_slots=horizon, warmup_slots=warmup,
        replications=reps,
        reps=tuple(ReplicationResult(rep_index=r, **_estimates(t))
                   for r, t in enumerate(tallies)))


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

    idx = np.searchsorted(space.cell, 6 * j + 3 * end_phase + acts)
    counts = np.bincount(idx, minlength=space.size)
    return RowEstimate(pmf=counts / trials, trials=trials, space=space)
