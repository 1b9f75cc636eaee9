"""Unit-safe power and frequency quantities.

Power is carried either in dBm (log domain, boundary/API values) or in
milliwatts (linear domain, all internal arithmetic). Frequency is always
gigahertz. The three wrappers are deliberately distinct types with no
cross-type arithmetic, so a dBm value can never be added to a milliwatt
value by accident; conversions are explicit. The library's other value
types are immutable records built on ``_record``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass


def _record(name: str, fields: str, defaults: tuple = ()) -> type:
    """The base of an immutable value record: a namedtuple of ``fields`` that hashes as, and
    equals, the plain tuple of its fields, but never equals a record of another class.
    ``_make`` and ``_replace`` go through ``__new__``, so the checks of a subclass's own
    ``__new__`` hold for every instance. A frozen dataclass compiles each method it generates
    at import; this compiles only the namedtuple's ``__new__``."""
    def same_class(compare):  # the tuples' comparison, between records of one class only
        return lambda self, other: (compare(self, other) if type(other) is type(self)
                                    else NotImplemented)

    class Record(namedtuple(name, fields, defaults=defaults)):
        __slots__ = ()
        __hash__ = tuple.__hash__
        __eq__, __ne__ = same_class(tuple.__eq__), same_class(tuple.__ne__)
        _make = classmethod(lambda cls, iterable: cls(*iterable))

    return Record


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
