"""Shared resource budgets for certified computations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
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
        d = d or {}
        return cls(
            grid_max=int(d.get("gridMax", cls.grid_max)),
            winding_max=int(d.get("windingMax", cls.winding_max)),
            truncation_n=int(d.get("truncationN", cls.truncation_n)),
            tol=float(d.get("tol", cls.tol)),
        )

    def to_dict(self) -> dict:
        return {
            "gridMax": self.grid_max,
            "windingMax": self.winding_max,
            "truncationN": self.truncation_n,
            "tol": self.tol,
        }
