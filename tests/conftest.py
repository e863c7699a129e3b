import contextlib
import math
import signal

import pytest

from criotq import (PnpModel, PolicyModel, PowerModel, SensingModel, SystemParams,
                    TrafficModel)


def make_params(mu_on=1.0, mu_off=1.0, n=20, lam=0.001, capacity_k=10, slot_d=1.0,
                p_detect=0.9, p_false_alarm=0.1, theta=0.2, xi=0.5) -> SystemParams:
    """Baseline cell: symmetric primary, 20 nodes on a 1 km charging disc."""
    radii = tuple(1000.0 * math.sqrt((k + 0.5) / n) for k in range(n))
    return SystemParams(
        pnp=PnpModel(mu_on=mu_on, mu_off=mu_off),
        traffic=TrafficModel(n=n, lam=lam, capacity_k=capacity_k, slot_d=slot_d),
        sensing=SensingModel(p_detect=p_detect, p_false_alarm=p_false_alarm),
        policy=PolicyModel(theta_idle=theta, xi_charge=xi),
        power=PowerModel(p_charge_min=50e-6, p_max=10.0, energy_per_packet=400e-6,
                         pathloss_exponent=2.0, node_radii=radii,
                         charging_radius=1000.0))


@pytest.fixture(scope="session")
def baseline_params() -> SystemParams:
    return make_params()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds, so a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
