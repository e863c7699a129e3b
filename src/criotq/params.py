"""Parameter records for the slotted opportunistic-access cell.

The model under study is a single secondary cell that reuses a licensed
channel whenever the primary network is quiet: a population of ``n``
battery-free sensor nodes feeds one aggregate FIFO buffer of size ``K``,
an access point senses the channel every ``slot_d`` seconds and then
either stays idle, serves the head-of-line packet, or beams power to the
nodes.  Each record below groups the parameters of one ingredient;
``SystemParams`` bundles them and enforces the cross-record constraints.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidParameterError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


def _finite(*values: float) -> bool:
    """True when every value is a finite number.

    A bool is not a number here, and neither is anything ``math.isfinite``
    refuses: a string raises TypeError, an integer past the float range
    OverflowError.
    """
    try:
        return all(not isinstance(v, bool) and math.isfinite(v) for v in values)
    except (TypeError, OverflowError):
        return False


def _is_int(value) -> bool:
    """True for a Python int; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PnpModel:
    """Alternating-renewal activity of the licensed primary network.

    ON and OFF durations are independent exponentials; the channel is
    usable by the secondary cell only while the primary is OFF.

    Attributes:
        mu_on: rate of the ON-duration exponential (1/s), so the mean
            busy period is 1/mu_on.
        mu_off: rate of the OFF-duration exponential (1/s).
    """

    mu_on: float
    mu_off: float

    def __post_init__(self):
        _require(_finite(self.mu_on, self.mu_off), "pnp rates must be finite")
        _require(self.mu_on > 0 and self.mu_off > 0, "pnp rates must be positive")
        _require(math.isfinite(self.mu_on + self.mu_off), "pnp rates must sum to a finite total")


def activity_factor(pnp: PnpModel) -> float:
    """Long-run fraction of time the primary network is ON.

    Equals mean_on / (mean_on + mean_off) = mu_off / (mu_on + mu_off).
    """
    return pnp.mu_off / (pnp.mu_on + pnp.mu_off)


@dataclass(frozen=True)
class TrafficModel:
    """Sensor traffic and buffering seen by the representative queue.

    The ``n`` nodes generate packets as independent Poisson processes of
    rate ``lam`` each, so the aggregate arrival stream is Poisson with
    rate ``n * lam`` and the per-slot arrival count is Poisson with mean
    ``n * lam * slot_d``, the offered load, which must be finite.

    Attributes:
        n: number of sensor nodes (>= 1).
        lam: per-node packet rate in packets/s (>= 0).
        capacity_k: buffer size K, counting an in-service packet (>= 1).
        slot_d: sensing-slot length d in seconds (> 0).
    """

    n: int
    lam: float
    capacity_k: int
    slot_d: float

    def __post_init__(self):
        _require(_is_int(self.n) and self.n >= 1, "n must be an integer >= 1")
        _require(_finite(self.lam, self.slot_d), "traffic parameters must be finite")
        _require(self.lam >= 0, "lam must be nonnegative")
        _require(_is_int(self.capacity_k) and self.capacity_k >= 1,
                 "capacity_k must be an integer >= 1")
        _require(self.slot_d > 0, "slot_d must be positive")
        _require(_finite(self.n) and math.isfinite(self.mean_arrivals_per_slot),
                 "offered load n * lam * slot_d must be finite")

    @property
    def aggregate_rate(self) -> float:
        """Total packet rate n * lam in packets/s."""
        return self.n * self.lam

    @property
    def mean_arrivals_per_slot(self) -> float:
        return self.n * self.lam * self.slot_d


@dataclass(frozen=True)
class SensingModel:
    """Per-slot spectrum-sensing quality.

    Attributes:
        p_detect: probability the sensor flags the channel busy given the
            primary is actually ON at the sensing instant.
        p_false_alarm: probability it flags busy given the primary is OFF.
    """

    p_detect: float
    p_false_alarm: float

    def __post_init__(self):
        _require(_finite(self.p_detect, self.p_false_alarm), "sensing probabilities must be finite")
        _require(0.0 <= self.p_detect <= 1.0, "p_detect must lie in [0, 1]")
        _require(0.0 <= self.p_false_alarm <= 1.0, "p_false_alarm must lie in [0, 1]")


@dataclass(frozen=True)
class PolicyModel:
    """Randomized slot-action policy applied when the channel is perceived free.

    With probability ``theta_idle`` the access point stays idle anyway;
    otherwise it charges with probability ``xi_charge`` and serves the
    queue with the complementary probability (serving an empty queue
    degenerates to idling).
    """

    theta_idle: float
    xi_charge: float

    def __post_init__(self):
        _require(_finite(self.theta_idle, self.xi_charge), "policy probabilities must be finite")
        _require(0.0 <= self.theta_idle <= 1.0, "theta_idle must lie in [0, 1]")
        _require(0.0 <= self.xi_charge <= 1.0, "xi_charge must lie in [0, 1]")


@dataclass(frozen=True)
class PowerModel:
    """Wireless power transfer budget of the access point.

    Attributes:
        p_charge_min: minimum received power (W) a node needs while the
            AP is charging, regardless of its traffic.
        p_max: transmit power budget of the AP in watts.
        energy_per_packet: energy m (J) a node spends to send one packet.
        pathloss_exponent: exponent alpha applied to normalized radii.
        node_radii: per-node distances from the AP (same unit as
            charging_radius); length must equal TrafficModel.n.
        charging_radius: normalization constant for the radii; defaults
            to max(node_radii) so the weights (r/charging_radius)**alpha
            stay <= 1 for in-range nodes.
    """

    p_charge_min: float
    p_max: float
    energy_per_packet: float
    pathloss_exponent: float
    node_radii: tuple[float, ...]
    charging_radius: float | None = None

    def __post_init__(self):
        _require(_finite(self.p_charge_min, self.p_max, self.energy_per_packet,
                         self.pathloss_exponent), "power parameters must be finite")
        _require(self.p_charge_min > 0, "p_charge_min must be positive")
        _require(self.p_max > 0, "p_max must be positive")
        _require(self.energy_per_packet > 0, "energy_per_packet must be positive")
        _require(self.pathloss_exponent >= 0, "pathloss_exponent must be nonnegative")
        # float() would take a string's characters, "1e3" or True as radii.
        # The radii are read once, so a one-shot iterable gives them all.
        text = isinstance(self.node_radii, (str, bytes))
        radii = () if text else tuple(self.node_radii)
        _require(not text and all(
            isinstance(r, numbers.Real) and not isinstance(r, bool) for r in radii),
            "node_radii must be a sequence of real numbers, not a string or bools")
        # Checked before float(), which overflows on an integer past the float range.
        _require(_finite(*radii), "node radii must be positive and finite")
        object.__setattr__(self, "node_radii", tuple(float(r) for r in radii))
        _require(len(self.node_radii) > 0, "node_radii must be nonempty")
        _require(all(r > 0 for r in self.node_radii), "node radii must be positive and finite")
        if self.charging_radius is not None:
            _require(_finite(self.charging_radius) and self.charging_radius > 0,
                     "charging_radius must be positive")

    @property
    def radius_scale(self) -> float:
        if self.charging_radius is not None:
            return self.charging_radius
        return max(self.node_radii)

    @functools.cached_property
    def path_loss_weight(self) -> float:
        """Sum over the nodes of (r / radius_scale) ** pathloss_exponent."""
        scale = self.radius_scale
        return sum((r / scale) ** self.pathloss_exponent for r in self.node_radii)


@dataclass(frozen=True)
class SystemParams:
    """Full parameterization of one cell; validates cross-record constraints."""

    pnp: PnpModel
    traffic: TrafficModel
    sensing: SensingModel
    policy: PolicyModel
    power: PowerModel

    def __post_init__(self):
        _require(len(self.power.node_radii) == self.traffic.n,
                 "node_radii length must equal the node count n")
