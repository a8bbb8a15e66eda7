"""Exception types for the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled illegally (e.g. in the past)."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (bad yield, double start, ...)."""
