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
    device_cf_numerical,
    distance_matrix,
    numerical_cf,
    observer_independence_check,
    split_machines,
    upgma_tree,
)
from .devices import (
    GridFollowingConverter,
    GridFormingConverter,
    IbrFilter,
    SynchronousMachine,
    ZipLoad,
    ibr_current_cf,
    s_load_cf,
    sm_current_cf,
    z_load_cf,
)
from .network import Branch, Bus, Network, Shunt, build_admittance, impedance_matrix
from .primitives import unwrap_phase
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
    "IbrFilter",
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
    "device_cf_numerical",
    "distance_matrix",
    "ibr_current_cf",
    "impedance_matrix",
    "initialize",
    "numerical_cf",
    "observer_independence_check",
    "power_flow",
    "run",
    "s_load_cf",
    "sm_current_cf",
    "split_machines",
    "unwrap_phase",
    "upgma_tree",
    "z_load_cf",
]
