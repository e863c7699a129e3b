"""Analysis toolkit for a slotted opportunistic-access IoT cell.

A secondary cell senses a licensed channel every slot and, when the
channel is perceived free, either serves its packet queue or wirelessly
charges its battery-free sensor nodes.  The package provides the exact
slot chain over (queue, primary phase, action), its stationary QoS and
power metrics, region searches over primary activity and traffic rate,
and an independent event-level Monte Carlo used to validate the chain.
"""

from .chain import (ChainStack, StateSpace, StationaryDistribution, build_transition_matrix,
                    enumerate_states, stationary_distribution)
from .errors import (CriotqError, DegenerateDistributionError, InvalidParameterError,
                     MetricRangeError, NoConvergenceError)
from .metrics import (DepartureDistributions, PowerRequirement, QosReport,
                      departure_distributions, evaluate_qos, nominal_charge_fraction,
                      required_power)
from .params import (PnpModel, PolicyModel, PowerModel, SensingModel, SystemParams,
                     TrafficModel, activity_factor)
from .region import (BETA_CEIL, BETA_FLOOR, SWEEP_AXES, SWEEP_TARGETS, Constraints,
                     CriticalResult, critical_beta, critical_lambda,
                     feasibility_check, params_with_activity, sweep, synchronized_baseline)
from .simulate import (GENERATOR_NAME, NUM_BATCHES, Counts, Estimates, SimConfig, SimResult,
                       estimate_slot_kernel, estimate_transition_row, run_simulation)
from .slot import (Action, ActionPmf, Phase, SlotTransitionKernel, arrival_tail,
                   decision_distribution, slot_kernel)

__version__ = "0.1.0"

__all__ = [
    "BETA_CEIL", "BETA_FLOOR", "GENERATOR_NAME", "NUM_BATCHES",
    "SWEEP_AXES", "SWEEP_TARGETS",
    "Action", "ActionPmf", "ChainStack", "Constraints", "Counts", "CriotqError", "CriticalResult",
    "DegenerateDistributionError", "DepartureDistributions", "Estimates",
    "InvalidParameterError", "MetricRangeError", "NoConvergenceError", "Phase",
    "PnpModel", "PolicyModel", "PowerModel", "PowerRequirement", "QosReport",
    "SensingModel", "SimConfig", "SimResult", "SlotTransitionKernel", "StateSpace",
    "StationaryDistribution", "SystemParams", "TrafficModel",
    "activity_factor", "arrival_tail",
    "build_transition_matrix", "critical_beta", "critical_lambda",
    "decision_distribution", "departure_distributions",
    "enumerate_states", "estimate_slot_kernel", "estimate_transition_row",
    "evaluate_qos", "feasibility_check", "nominal_charge_fraction",
    "params_with_activity", "required_power", "run_simulation", "slot_kernel",
    "stationary_distribution", "sweep", "synchronized_baseline",
]
