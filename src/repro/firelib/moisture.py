"""Fuel moisture bundle (the four Table I moisture parameters).

Table I expresses moistures in percent (1–60 dead, 30–300 live
herbaceous); the Rothermel equations consume fractions. :class:`Moisture`
is the validated, fraction-valued bundle used throughout
:mod:`repro.firelib`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScenarioError

__all__ = ["Moisture", "MOISTURE_FIELDS", "moisture_matrix"]

#: Plausible fraction range of each field, in :class:`Moisture` order.
_RANGES = (
    ("m1", 0.0, 1.0),
    ("m10", 0.0, 1.0),
    ("m100", 0.0, 1.0),
    ("mherb", 0.0, 4.0),
)

#: The columns of a :func:`moisture_matrix`.
MOISTURE_FIELDS = tuple(name for name, _, _ in _RANGES)


@dataclass(frozen=True)
class Moisture:
    """Dead (1-h/10-h/100-h) and live herbaceous fuel moistures, fractions.

    Attributes map one-to-one onto the Table I parameters ``M1``,
    ``M10``, ``M100`` and ``Mherb``.
    """

    m1: float
    m10: float
    m100: float
    mherb: float

    def __post_init__(self) -> None:
        for name, lo, hi in _RANGES:
            v = getattr(self, name)
            if not (lo <= v <= hi):
                raise ScenarioError(
                    f"moisture fraction {name}={v} outside plausible range "
                    f"[{lo}, {hi}] (did you pass percent instead of fraction?)"
                )

    @classmethod
    def from_percent(
        cls, m1: float, m10: float, m100: float, mherb: float
    ) -> "Moisture":
        """Build from Table I percent values."""
        return cls(m1=m1 / 100.0, m10=m10 / 100.0, m100=m100 / 100.0, mherb=mherb / 100.0)

    def value_for(self, moisture_key: str) -> float:
        """Moisture fraction for a particle's ``moisture_key``."""
        try:
            return float(getattr(self, moisture_key))
        except AttributeError:
            raise ScenarioError(f"unknown moisture key {moisture_key!r}") from None


def moisture_matrix(fractions) -> np.ndarray:
    """Validate a batch of moistures: an ``(n, 4)`` float64 matrix.

    Columns follow :data:`MOISTURE_FIELDS`; each row is checked the way
    :class:`Moisture` checks one bundle, and the first invalid row
    raises the very :class:`ScenarioError` its :class:`Moisture` would.
    """
    m = np.asarray(fractions, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != len(_RANGES):
        raise ScenarioError(
            f"moisture matrix must be (n, {len(_RANGES)}), got {m.shape}"
        )
    low = np.array([lo for _, lo, _ in _RANGES])
    high = np.array([hi for _, _, hi in _RANGES])
    bad = np.flatnonzero(~((m >= low) & (m <= high)).all(axis=1))
    if bad.size:
        Moisture(*m[bad[0]].tolist())  # raises
    return m
