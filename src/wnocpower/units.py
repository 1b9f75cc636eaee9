"""Unit-safe power and frequency quantities.

Power is carried either in dBm (log domain, boundary/API values) or in
milliwatts (linear domain, all internal arithmetic). Frequency is always
gigahertz. The three wrappers are deliberately distinct types with no
cross-type arithmetic, so a dBm value can never be added to a milliwatt
value by accident; conversions are explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class PowerDbm:
    """Power level in decibel-milliwatts. May be negative; must be finite."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"power in dBm must be finite (got {self.value})")


@dataclass(frozen=True, order=True)
class PowerMilliwatt:
    """Linear power in milliwatts.

    Zero is permitted (a power difference or an absent block can be 0 mW),
    negative values are not.
    """

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"power in mW must be finite and >= 0 (got {self.value})")


@dataclass(frozen=True, order=True)
class FrequencyGhz:
    """Operating frequency in gigahertz. Strictly positive."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ValueError(f"frequency in GHz must be finite and > 0 (got {self.value})")


def _dbm_mw(dbm: float) -> float:
    """``dbm_to_mw`` on plain floats, with the same checks."""
    try:
        mw = 10.0 ** (dbm / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm} dBm overflows a float in mW") from None
    if mw == 0.0:
        raise ValueError(f"{dbm} dBm rounds to 0 mW")
    return mw


def dbm_to_mw(p: PowerDbm) -> PowerMilliwatt:
    """Convert dBm to linear milliwatts: mW = 10^(dBm / 10)."""
    return PowerMilliwatt(_dbm_mw(p.value))


def mw_to_dbm(p: PowerMilliwatt) -> PowerDbm:
    """Convert milliwatts to dBm: dBm = 10 * log10(mW). Requires p > 0."""
    if p.value <= 0.0:
        raise ValueError("cannot express 0 mW in dBm (log undefined)")
    return PowerDbm(10.0 * math.log10(p.value))
