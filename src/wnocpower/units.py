"""Unit-safe power and frequency quantities.

Power is carried either in dBm (log domain, boundary/API values) or in
milliwatts (linear domain, all internal arithmetic). Frequency is always
gigahertz. The three wrappers are deliberately distinct types with no
cross-type arithmetic or ordering, so a dBm value can never be added to a
milliwatt value by accident; conversions are explicit. Every value type of
the library is immutable: a record built on ``_record``, or a ``_Slotted``.
"""

from __future__ import annotations

import math
from collections import namedtuple


def _record(name: str, fields: str, defaults: tuple = ()) -> type:
    """The base of an immutable value record: a namedtuple of ``fields`` that hashes and
    compares (all six ways) as the plain tuple of its fields, but only with a record of its
    class: across classes ``==`` is False and ordering a TypeError. Like a dataclass, it neither
    concatenates nor repeats (``+``, ``*``). ``_make`` and ``_replace`` go through ``__new__``, so
    a subclass's checks there hold for every instance. A subclass that checks its fields takes
    them as ``__new__`` parameters, checks those and returns ``tuple.__new__(cls, fields)``: one
    Python frame per instance. A frozen dataclass would compile each method it generates at
    import; this compiles only ``__new__``."""
    def same_class(compare):  # the tuples' comparison, between records of one class only
        return lambda self, other: (compare(self, other) if type(other) is type(self)
                                    else NotImplemented)

    class Record(namedtuple(name, fields, defaults=defaults)):
        __slots__ = ()
        __hash__ = tuple.__hash__
        __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(same_class, (
            tuple.__eq__, tuple.__ne__, tuple.__lt__, tuple.__le__, tuple.__gt__, tuple.__ge__))
        __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented
        _make = classmethod(lambda cls, iterable: cls(*iterable))

    return Record


class _Slotted:
    """The base of an immutable value class that cannot be a tuple: ``__slots__`` lists its
    fields, which its ``__init__`` checks and sets with ``_set``. Repr, equality within a class
    and hash are a record's; pickling and copying rebuild an instance through its checks."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:  # the constructor and its arguments, the fields in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return (self.__reduce__() == other.__reduce__() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])


class PowerDbm(_record("PowerDbm", "value")):
    """Power level in decibel-milliwatts. May be negative; must be finite."""

    __slots__ = ()

    def __new__(cls, value: float):
        try:
            if math.isfinite(value):
                return tuple.__new__(cls, (value,))
        except OverflowError:  # an int past the float range
            pass
        raise ValueError(f"power in dBm must be finite (got {value})")


class PowerMilliwatt(_record("PowerMilliwatt", "value")):
    """Linear power in milliwatts. Zero is permitted (a power difference or an absent block
    can be 0 mW), negative values are not."""

    __slots__ = ()

    def __new__(cls, value: float):
        try:
            if math.isfinite(value) and value >= 0.0:
                return tuple.__new__(cls, (value,))
        except OverflowError:  # an int past the float range
            pass
        raise ValueError(f"power in mW must be finite and >= 0 (got {value})")


class FrequencyGhz(_record("FrequencyGhz", "value")):
    """Operating frequency in gigahertz. Strictly positive."""

    __slots__ = ()

    def __new__(cls, value: float):
        try:
            if math.isfinite(value) and value > 0.0:
                return tuple.__new__(cls, (value,))
        except OverflowError:  # an int past the float range
            pass
        raise ValueError(f"frequency in GHz must be finite and > 0 (got {value})")


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
