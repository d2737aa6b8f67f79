"""Complex-frequency coherency analysis for power-system devices.

The package simulates transient-stability scenarios (classical machines, ZIP
loads, grid-following and grid-forming converters on an algebraic network)
and evaluates coherency between arbitrary devices through the complex
frequency of their injected currents.
"""

from .coherency import (
    CfSeries,
    ClusterTree,
    CoherencyDistanceMatrix,
    ObservationPoint,
    alpha_beta_sweep,
    coherency_distance,
    coherency_function,
    cluster_trajectory,
    device_cf,
    distance_matrix,
    numerical_cf,
    observer_independence_check,
    split_machines,
    upgma_tree,
)
from .devices import (
    GridFollowingConverter,
    GridFormingConverter,
    SynchronousMachine,
    ZipLoad,
)
from .network import Branch, Bus, Network, Shunt, build_admittance, impedance_matrix
from .simulation import (
    AnalysisOptions,
    Event,
    Scenario,
    Trajectory,
    initialize,
    power_flow,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "Branch",
    "Bus",
    "CfSeries",
    "ClusterTree",
    "CoherencyDistanceMatrix",
    "Event",
    "GridFollowingConverter",
    "GridFormingConverter",
    "Network",
    "ObservationPoint",
    "Scenario",
    "Shunt",
    "SynchronousMachine",
    "Trajectory",
    "ZipLoad",
    "alpha_beta_sweep",
    "build_admittance",
    "cluster_trajectory",
    "coherency_distance",
    "coherency_function",
    "device_cf",
    "distance_matrix",
    "impedance_matrix",
    "initialize",
    "numerical_cf",
    "observer_independence_check",
    "power_flow",
    "run",
    "split_machines",
    "upgma_tree",
]
