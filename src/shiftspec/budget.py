"""Shared resource budgets for certified computations, and the JSON form of reports."""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import numpy as np


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part[:1].upper() + part[1:] for part in rest)


@cache
def _json_keys(cls) -> tuple:
    """(name, JSON key) of each field of a report class that has repr on;
    the key is the name in camelCase (``min_sampled`` is ``minSampled``)."""
    return tuple((f.name, _camel(f.name)) for f in fields(cls) if f.repr)


def _json_value(v):
    """One value in its JSON form: a complex number as [re, im], a list,
    tuple or array item by item, an object with a ``to_dict`` by it, anything
    else unchanged."""
    if v is None or isinstance(v, (str, int, float)):
        return v
    if isinstance(v, (complex, np.complexfloating)):
        return [float(v.real), float(v.imag)]
    if isinstance(v, np.ndarray):
        return _json_value(v.tolist())
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v.to_dict() if hasattr(v, "to_dict") else v


class Report:
    """Base of dataclasses whose ``to_dict`` is their fields: each field
    with repr on, under its ``_json_keys`` key, as ``_json_value`` of it (a
    field declared with ``repr=False`` is left out)."""

    def to_dict(self) -> dict:
        return {key: _json_value(getattr(self, name)) for name, key in _json_keys(type(self))}


@dataclass(frozen=True)
class Budget(Report):
    """Caps for circle scans, contour sampling, truncation and residual targets."""

    grid_max: int = 2**18
    winding_max: int = 2**20
    truncation_n: int = 256
    tol: float = 1e-9

    def __post_init__(self):
        if self.grid_max < 64 or self.winding_max < 64:
            raise ValueError("budgets too small to certify anything")
        if self.truncation_n < 4:
            raise ValueError("truncation length must be at least 4")
        if not self.tol > 0:
            raise ValueError("tolerances must be positive")

    @classmethod
    def from_dict(cls, d: dict | None) -> "Budget":
        """Inverse of ``to_dict``: each key present, cast by the type of its
        field's default; a missing key (or ``None`` for ``d``) keeps it."""
        d = d or {}
        return cls(**{name: type(getattr(cls, name))(d[key])
                      for name, key in _json_keys(cls) if key in d})
