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
  phases, and their running sum gives the switch times; each switch's
  slot index, by division checked against the array of slot bounds,
  counts the switches before each bound, which gives every slot's
  starting phase (by parity) and whether one phase covered it;
* each chunk draws its arrival counts, the in-slot timestamps of the
  slots with an arrival, and the sensing, idle and charge coins, in that
  order; each coin row is reduced to its flags (free if ON, free if OFF,
  passes the idle coin, charges) before the next is drawn, so a chunk
  holds about 10 bytes per slot and 8 per admitted arrival through its
  tally;
* the queue moves only on slots with an arrival or a possible
  departure, and between arrivals it only falls, by one a departure
  down to empty, so only the recursion q' = min(q + a, K) - [departure]
  at the arrival slots runs in a Python loop.  The admissions,
  departures, drops and post-departure queues are read on the moving
  slots alone; the queue at each slot start is its value after the last
  move, which with the phase and action gives each slot's cell, tallied
  per batch;
* packets leave in FIFO order, so the m-th departure takes the m-th
  admitted timestamp, and sojourns are added to their batch sums in
  slot order.

Each chunk's phase path is drawn on the replication's one worker
thread, submitted as the chunk before is taken, so it runs while the
main thread draws the chunk's arrivals and coins and tallies the chunk
before; numpy releases the interpreter lock in those bulk draws and
array passes, so the two overlap.  At most one such draw is pending at
a time, and none is submitted after the last chunk.  The phase path
draws only from its own stream and the flow only from the other, and
each stream is used in a fixed order, by one thread at a time, so the
bits do not depend on how the threads are scheduled.  The worker is
joined on every path, and an exception it raises is raised in the
caller.

These steps draw the same numbers and do the same floating-point
operations as a loop over slots, so the tallies equal that loop's bit
for bit (tests/test_simulate.py keeps the loop as the reference).

Every phase switch is drawn, so a replication, or an estimator call,
whose expected switch count passes a fixed budget raises before its
first draw instead of running for hours, or forever at the shortest
mean durations.  Every arrival of a chunk is held at once, so a
replication whose chunk expects more arrivals than a fixed budget
raises before its first draw too, instead of exhausting memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import StateSpace, enumerate_states
from .errors import InvalidParameterError
from .params import PnpModel, SystemParams, _finite, activity_factor
from .slot import Action, Phase, SlotTransitionKernel

GENERATOR_NAME = "PCG64"

#: Batch count for within-run standard errors (batch means absorb the
#: slot-to-slot autocorrelation a naive binomial SE would ignore).
NUM_BATCHES = 32

_CHUNK = 1 << 18

#: Most phase switches a replication, or one start phase of an estimator,
#: may expect.  The phase path draws about 3e7 switches/s (2-core x86 VM),
#: so this many take about 30 s.  The shipped configs, tests and benchmark
#: workloads reach at most 1e6 per replication, and 1.1e7 per start phase
#: of an estimator (acceptance criterion 1).
_MAX_SWITCHES = 1e9
#: Most switches the one-slot sampler may expect in one slot.  Each is one
#: pass of its loop, about 30 us at few trials, so this many take about
#: 3 s.  The tests reach at most 10.7 (acceptance criterion 1).
_MAX_SLOT_SWITCHES = 1e5
#: Most arrivals a replication's chunk may expect.  A chunk holds every
#: arrival's timestamp at once, about 22 bytes each at the peak (peak RSS
#: over a warm process at 2.5e6 arrivals, 17 at 5e6), so this many take
#: about 0.2 GB.  The shipped configs, tests and benchmark workloads
#: reach at most 1.05e6 (4 per slot over a full chunk).
_MAX_CHUNK_ARRIVALS = 1e7


def _check_count(name: str, value, least: int | None = None) -> None:
    """Raise unless value is an int or numpy integer, not a bool, and not below least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidParameterError(f"{name} must be >= {least}")


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
        if self.warmup_slots is not None:
            _check_count("warmup_slots", self.warmup_slots)
        for name, least in (("seed", 0), ("horizon_slots", 1), ("replications", 1)):
            _check_count(name, getattr(self, name), least)
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
class Estimates:
    """Counts, point estimates and batch-means SEs of one or more replications."""

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
class SimResult(Estimates):
    """Pooled simulation output.

    The estimate fields pool every replication; reps holds each
    replication's own Estimates in replication order.  Histograms are
    pmfs: slot_state_histogram over the canonical state order of the
    analytic chain, post_departure_histogram over the queue left behind
    at departures (0..K-1).  Standard errors come from batch means over
    the measured window (all replications concatenated).
    """

    slot_state_histogram: np.ndarray
    post_departure_histogram: np.ndarray
    space: StateSpace
    seed: int
    generator: str
    horizon_slots: int
    warmup_slots: int
    replications: int
    reps: tuple[Estimates, ...]

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


def _check_switches(pnp: PnpModel, duration: float, budget: float, what: str) -> None:
    """Raise unless the expected phase switches in duration stay within budget.

    Switches come at the renewal rate 2 / (1/mu_on + 1/mu_off): one ON
    and one OFF period per cycle of mean length 1/mu_on + 1/mu_off.
    """
    count = 2.0 * duration / (1.0 / pnp.mu_on + 1.0 / pnp.mu_off)
    if not count <= budget:
        raise InvalidParameterError(f"{what} expects {count:.3g} phase switches, "
                                    f"over the simulator's budget of {budget:.0e}")


def _switch_rank(switches: np.ndarray, bounds: np.ndarray, slot_d: float, s0: int) -> np.ndarray:
    """Count the bounds (s0 + j) * slot_d <= each switch in [bounds[0], bounds[-1]).

    That is the switch's slot index by division, less s0 - 1, checked
    against the bounds on both sides; binary search ranks only the misses.
    """
    rank = (switches / slot_d).astype(np.int64) - (s0 - 1)
    np.clip(rank, 1, bounds.size - 1, out=rank)
    bad = np.flatnonzero((bounds[rank - 1] > switches) | (bounds[rank] <= switches))
    rank[bad] = np.searchsorted(bounds, switches[bad], "right")
    return rank


def _phase_path(rng: np.random.Generator, pnp: PnpModel, slot_d: float, horizon: int):
    """Yield the starting phase (True for ON) and whole-slot flag of every slot, per chunk.

    The phase alternates, so its durations are drawn in a fixed order:
    _BLOCK for the start phase, _BLOCK for the other phase, and again.
    Interleaved and summed left to right they give the switch times; a
    slot starts in the start phase iff an even number of switches came
    before its start, and stays in one phase iff none falls inside it.
    Each switch is ranked among the bounds by its slot index
    (_switch_rank), and a running count of the ranks counts them.
    """
    start = 1 if rng.random() < activity_factor(pnp) else 0
    scale = (1.0 / pnp.mu_off, 1.0 / pnp.mu_on)  # index = phase being held

    def block(last: float) -> np.ndarray:
        dur = np.empty(2 * _BLOCK)
        dur[0::2] = rng.exponential(scale[start], _BLOCK)
        dur[1::2] = rng.exponential(scale[1 - start], _BLOCK)
        dur[0] += last
        return np.cumsum(dur)

    # The blocks before the current one end before the chunk's first bound
    # and hold 2 * _BLOCK switches each, an even number, so counting from
    # the current block gives every parity and every difference.
    switches = block(0.0)
    for s0 in range(0, horizon, _CHUNK):
        bounds = np.arange(s0, min(s0 + _CHUNK, horizon) + 1) * slot_d
        # Switches by the bounds <= them.  int64, since np.add.at into an
        # int32 array takes numpy's slow path (about 30 times slower).
        per_rank = np.zeros(bounds.size, dtype=np.int64)
        while True:
            lo, hi = np.searchsorted(switches, bounds[[0, -1]])
            per_rank[0] += lo
            np.add.at(per_rank, _switch_rank(switches[lo:hi], bounds, slot_d, s0), 1)
            if switches[-1] >= bounds[-1]:
                break
            switches = block(switches[-1])
        # In place: per_rank becomes the switches before each bound, then
        # their parity; the generator holds neither it nor bounds while
        # suspended.
        whole = per_rank[1:] == 0
        on = np.bitwise_and(np.cumsum(per_rank, out=per_rank), 1, out=per_rank)[:-1] != start
        del bounds, per_rank
        yield on, whole


def _arrivals(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Poisson(mean) arrival counts of size slots; a mean past numpy's limit raises."""
    try:
        return rng.poisson(mean, size)
    except ValueError:
        raise InvalidParameterError(f"per-slot arrival mean {mean:g} is too large") from None


def _check_arrivals(mean: float, slots: int) -> None:
    """Raise unless a chunk of slots expects at most _MAX_CHUNK_ARRIVALS arrivals."""
    count = mean * slots
    if not count <= _MAX_CHUNK_ARRIVALS:
        raise InvalidParameterError(
            f"per-slot arrival mean {mean:g} is too large: a chunk of {slots} slots expects "
            f"{count:.3g} arrivals, over the simulator's budget of {_MAX_CHUNK_ARRIVALS:.0e}")


def _coins(rng: np.random.Generator, size: int, params: SystemParams) -> tuple[np.ndarray, ...]:
    """Draw the sensing, idle and charge coins of size decisions, as flags.

    The rows are drawn in that order, each reduced to its flags before
    the next is drawn: free if ON and free if OFF, passes the idle coin,
    and charges.
    """
    sense_u = rng.random(size)
    free_on, free_off = sense_u >= params.sensing.p_detect, sense_u >= params.sensing.p_false_alarm
    del sense_u
    passes = rng.random(size) >= params.policy.theta_idle
    return free_on, free_off, passes, rng.random(size) < params.policy.xi_charge


def _actions(flags: tuple[np.ndarray, ...], on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charge and serve flags of decisions made in phase on (True for ON).

    flags are _coins' flags.  A decision goes past the sensing coin and
    the idle coin, then charges, or serves if the queue is nonempty.
    """
    free_on, free_off, passes, charges = flags
    go = ((free_on & on) | (free_off & ~on)) & passes
    charge = go & charges
    return charge, go ^ charge


def _simulate_one(params: SystemParams, horizon: int, warmup: int,
                  seed: int, rep_index: int) -> _Tally:
    """Draw each chunk's flow, step its queue and tally its measured slots."""
    tr = params.traffic
    k_cap = tr.capacity_k
    d = tr.slot_d
    _check_switches(params.pnp, horizon * d, _MAX_SWITCHES, f"a replication of {horizon} slots")
    _check_arrivals(tr.mean_arrivals_per_slot, min(_CHUNK, horizon))
    phase_rng, flow_rng = (np.random.Generator(np.random.PCG64(s))
                           for s in np.random.SeedSequence([seed, rep_index]).spawn(2))
    measured = horizon - warmup
    meas_t0 = warmup * d
    # First slot of each batch, then the horizon.
    edges = warmup + (np.arange(NUM_BATCHES + 1) * measured + NUM_BATCHES - 1) // NUM_BATCHES

    # Slots per batch and cell 6 queue + 3 phase + action of the (K+1) x 2 x 3 grid.
    cells = np.zeros((NUM_BATCHES, 6 * (k_cap + 1)), dtype=np.int64)
    post_dep = np.zeros(k_cap, dtype=np.int64)
    batches = np.zeros((NUM_BATCHES, _SLOTS + 1), dtype=np.int64)
    soj_sum = np.zeros(NUM_BATCHES)
    served_tagged = 0
    qlen = 0
    waiting = np.empty(0)  # arrival timestamps of the queued packets, head first

    # Imported here: at module level it would load logging into every process.
    from concurrent.futures import ThreadPoolExecutor

    phases = _phase_path(phase_rng, params.pnp, d, horizon)
    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(next, phases)
        for s0 in range(0, horizon, _CHUNK):
            chunk = min(_CHUNK, horizon - s0)
            n_arr = _arrivals(flow_rng, tr.mean_arrivals_per_slot, chunk)
            total = int(n_arr.sum())
            arr_at = np.flatnonzero(n_arr)  # the slots with an arrival
            ts = np.repeat((arr_at + s0).astype(np.float64), n_arr[arr_at])
            ts += flow_rng.random(total)
            ts *= d
            ts.sort()
            flags = _coins(flow_rng, chunk, params)
            phase, whole = pending.result()
            if s0 + chunk < horizon:  # the next chunk's path, drawn while this one is tallied
                pending = worker.submit(next, phases)

            charge, serving = _actions(flags, phase)
            del flags
            clears = serving & ~phase & whole  # departs iff the queue is nonempty

            # The queue only moves on slots with an arrival or a possible
            # departure.  Between arrivals it only falls, by one a departure
            # down to empty, so the recursion steps through the arrivals alone.
            moves = np.flatnonzero((n_arr > 0) | clears)
            n_m = n_arr[moves]
            del n_arr
            clear_m = clears[moves]
            lands = np.flatnonzero(n_m)  # the moves with an arrival

            def walk(q):
                yield q
                for c, clear, gap in zip(n_m[lands].tolist(), clear_m[lands].tolist(),
                                         np.diff(lands, prepend=-1).tolist()):
                    q -= gap - 1  # each move since the last arrival cleared a queued packet
                    if q < 0:
                        q = 0
                    nxt = q + c
                    if nxt > k_cap:
                        nxt = k_cap
                    if clear and q:
                        nxt -= 1
                    q = nxt
                    yield q

            # qlen, then the queue after each arrival.
            peaks = np.fromiter(walk(qlen), np.int64, lands.size + 1)
            # The queue after each move: after the last arrival, less the moves since.
            last = np.cumsum(n_m > 0)
            since = np.arange(moves.size) - np.concatenate(([-1], lands))[last]
            after = np.concatenate(([qlen], np.maximum(peaks[last] - since, 0)))  # qlen first
            before = after[:-1]
            qlen = int(after[-1])
            adm = np.minimum(n_m, k_cap - before)
            dep = clear_m & (before > 0)
            if adm.sum() < total:  # admit each slot's earliest arrivals only
                ts = ts[np.repeat(np.tile([True, False], moves.size),
                                  np.stack([adm, n_m - adm], axis=1).ravel())]
            queue = np.concatenate([waiting, ts])
            del ts
            n_dep = int(np.count_nonzero(dep))
            leaving, waiting = queue[:n_dep], queue[n_dep:]

            if warmup >= s0 + chunk:
                continue
            cut = np.clip(edges, max(warmup, s0), s0 + chunk) - s0  # batch bounds in the chunk
            # Each slot's cell from the queue at its start; Serve of an empty
            # queue is folded below.  int32 halves the one chunk-length
            # integer pass: any K whose cells array fits in memory has
            # 6(K + 1) < 2**31.
            key = np.repeat(6 * after.astype(np.int32),
                            np.diff(moves, prepend=-1, append=chunk - 1))
            code = np.multiply(phase, 3, dtype=np.uint8)  # 3 phase + action, in one buffer
            for flag in (charge, charge, serving):
                code += flag
            key += code
            for b in np.flatnonzero(np.diff(cut)):
                cells[b] += np.bincount(key[cut[b]:cut[b + 1]], minlength=cells.shape[1])
            at = np.searchsorted(moves, cut)  # batch bounds in the moves
            for col, per_move in ((_GEN, n_m), (_DROP, n_m - adm), (_SERVE, dep)):
                batches[:, col] += np.diff(np.concatenate(([0], np.cumsum(per_move)))[at])

            # Measured departures are the chunk's last ones.  Each batch sum
            # starts from its running value and adds sojourns in slot order.
            measured_dep = dep[at[0]:]
            s_at = s0 + moves[at[0]:][measured_dep]
            t_arr = leaving[n_dep - s_at.size:]
            np.add.at(soj_sum, ((s_at - warmup) * NUM_BATCHES) // measured, (s_at + 1) * d - t_arr)
            post_dep += np.bincount(after[1:][at[0]:][measured_dep], minlength=k_cap)
            served_tagged += int(np.count_nonzero(t_arr >= meas_t0))

    # An empty queue has nothing to serve: those slots idle.
    cells[:, [0, 3]] += cells[:, [1, 4]]
    cells[:, [1, 4]] = 0
    grid = cells.reshape(NUM_BATCHES, k_cap + 1, 2, 3)
    batches[:, _INTERF] = grid[:, :, Phase.ON, Action.SERVE:].sum(axis=(1, 2))
    batches[:, _CHARGE] = grid[..., Action.CHARGE].sum(axis=(1, 2))
    batches[:, _SLOTS] = cells.sum(axis=1)
    return _Tally(hist=cells.sum(axis=0)[enumerate_states(k_cap).cell], post_dep=post_dep,
                  batches=batches, soj_sum=soj_sum, served_tagged=served_tagged)


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
    """The Estimates fields of one replication's tally or of a pool."""
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
        reps=tuple(Estimates(**_estimates(t)) for t in tallies))


def _check_estimator(slot_d: float, trials: int, seed: int) -> None:
    """Raise unless an estimator's slot length, trial count and seed are valid."""
    if not _finite(slot_d) or slot_d < 0:
        raise InvalidParameterError("slot_d must be finite and nonnegative")
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)


def _renewal_endpoints(rng: np.random.Generator, pnp: PnpModel, start_phase: int,
                       slot_d: float, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the end phase and whole-slot persistence of one slot.

    Pure alternating-renewal sampling: repeatedly draw the residual of
    the current phase and switch while it falls inside the slot.  Shares
    nothing with the closed-form kernel.  Each switch is one pass of the
    loop, so the switches per slot have their own budget.
    """
    _check_switches(pnp, slot_d, _MAX_SLOT_SWITCHES, "one slot")
    _check_switches(pnp, trials * slot_d, _MAX_SWITCHES, f"a run of {trials} one-slot trials")
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


def estimate_slot_kernel(pnp: PnpModel, slot_d: float, trials: int,
                         seed: int) -> SlotTransitionKernel:
    """Estimate the phase kernel by simulating `trials` slots from each phase.

    The fields are the observed frequencies, in the record slot_kernel
    returns for the closed form.
    """
    _check_estimator(slot_d, trials, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    end_off, whole_off = _renewal_endpoints(rng, pnp, Phase.OFF, slot_d, trials)
    end_on, whole_on = _renewal_endpoints(rng, pnp, Phase.ON, slot_d, trials)
    a01 = float(np.count_nonzero(end_off == 1)) / trials
    a10 = float(np.count_nonzero(end_on == 0)) / trials
    offp = float(np.count_nonzero(whole_off)) / trials
    onp = float(np.count_nonzero(whole_on)) / trials
    return SlotTransitionKernel(a00=1.0 - a01, a01=a01, a10=a10, a11=1.0 - a10,
                                off_persist=offp, on_persist=onp)


def estimate_transition_row(params: SystemParams, source: tuple[int, Phase, Action],
                            trials: int, seed: int) -> np.ndarray:
    """Monte Carlo one-slot transition row from a fixed source state.

    Simulates `trials` independent slots started in `source`: a renewal
    phase path, a Poisson arrival count capped by the free buffer, the
    head-of-line departure on a covered serving slot, and the next
    decision draw.  Returns the destination frequencies in canonical
    state order, shaped like the analytic row ``tm.matrix[0][src]``.
    """
    tr = params.traffic
    _check_estimator(tr.slot_d, trials, seed)
    space = enumerate_states(tr.capacity_k)
    i, phase, action = source
    space.index(i, phase, action)  # validates the triple
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    end_phase, whole = _renewal_endpoints(rng, params.pnp, phase, tr.slot_d, trials)
    n_arr = _arrivals(rng, tr.mean_arrivals_per_slot, trials)
    admitted = np.minimum(n_arr, tr.capacity_k - i)
    j = i + admitted - (whole & (action == Action.SERVE and phase == Phase.OFF))
    charge, serving = _actions(_coins(rng, trials, params), end_phase == 1)
    acts = 2 * charge + (serving & (j >= 1))

    idx = np.searchsorted(space.cell, 6 * j + 3 * end_phase + acts)
    return np.bincount(idx, minlength=space.size) / trials
