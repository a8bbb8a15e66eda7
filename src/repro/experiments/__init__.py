"""One reproduction module per paper figure/table, plus the registry."""

from .registry import Claim, Experiment, all_experiments, get, register

__all__ = ["Claim", "Experiment", "register", "get", "all_experiments"]
