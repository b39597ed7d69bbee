"""Domain rules for the repro lint framework.

Importing this package registers every rule with
:func:`repro.analysis.core.register`; :mod:`repro.analysis` does so on
import, so ``registered_rules()`` is always fully populated.
"""

from .bounded_wait import BoundedWaitRule
from .futures import FutureHygieneRule
from .grad_mode import ProbeModeDisciplineRule
from .threading_rules import LockDisciplineRule, ThreadLocalStateRule

__all__ = [
    "BoundedWaitRule",
    "FutureHygieneRule",
    "ProbeModeDisciplineRule",
    "LockDisciplineRule",
    "ThreadLocalStateRule",
]
