"""Exception types shared across the package."""


class CfCoherencyError(Exception):
    """Base class for all package-specific errors."""


class MagnitudeUnderflow(CfCoherencyError):
    """A Clarke vector fell below the magnitude guard where a division by it is required."""


class DisconnectedNetwork(CfCoherencyError):
    """The branch set does not connect all buses."""


class ZeroImpedanceBranch(CfCoherencyError):
    """A branch was declared with zero series impedance."""


class SingularAdmittance(CfCoherencyError):
    """The admittance matrix is (numerically) singular; no impedance matrix exists."""


class NoSuchBranch(CfCoherencyError):
    """Requested a branch current for a bus pair with no branch between them."""


class NonConvergence(CfCoherencyError):
    """Power-flow iteration hit its cap without meeting the mismatch tolerance."""


class InfeasibleInit(CfCoherencyError):
    """Steady-state initialization produced an unusable device operating point."""


class NewtonDivergence(CfCoherencyError):
    """The implicit integration step failed to converge, even after step halving."""


class TimeBaseMismatch(CfCoherencyError):
    """Two sampled series do not share the same time base."""


class EmptyWindow(CfCoherencyError):
    """An integration window contains no usable samples."""


class EventError(ValueError):
    """A scenario event that cannot be applied; `index` is its position in
    `Scenario.events`."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class SchemaError(CfCoherencyError):
    """A scenario document violates the expected schema.

    The message carries a JSON-path-like locator of the offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
