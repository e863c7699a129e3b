"""One-slot Monte Carlo estimators that cross-check the closed-form slot laws.

Acceptance criteria 1 and 2 read them: ``estimate_slot_kernel`` against
``slot_kernel``, and ``estimate_transition_row`` against each row of the
built chain.  Like the simulator, they share no transition law with the
chain: the phase is sampled from its alternating renewal process, and
the arrival count, the departure and the next decision are drawn per
slot, with the simulator's coins.

Each switch of the one-slot sampler is one pass of its loop, so a call
whose expected switch count passes a fixed budget, per slot or over all
trials of one start phase, raises before its first draw.
"""

from __future__ import annotations

import numpy as np

from criotq.chain import enumerate_states
from criotq.errors import InvalidParameterError
from criotq.params import PnpModel, SystemParams, _finite
from criotq.simulate import _MAX_SWITCHES, _actions, _check_count, _check_switches, _coins
from criotq.slot import Action, Phase, SlotTransitionKernel

#: Most switches the one-slot sampler may expect in one slot.  Each is one
#: pass of its loop, about 30 us at few trials, so this many take about
#: 3 s.  The tests reach at most 10.7 per slot, and 1.1e7 per start phase
#: against the simulator's _MAX_SWITCHES (acceptance criterion 1).
_MAX_SLOT_SWITCHES = 1e5


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
    n_arr = rng.poisson(tr.mean_arrivals_per_slot, trials)
    admitted = np.minimum(n_arr, tr.capacity_k - i)
    j = i + admitted - (whole & (action == Action.SERVE and phase == Phase.OFF))
    charge, serving = _actions(_coins(rng, trials, params), end_phase == 1)
    acts = 2 * charge + (serving & (j >= 1))

    idx = np.searchsorted(space.cell, 6 * j + 3 * end_phase + acts)
    return np.bincount(idx, minlength=space.size) / trials
