"""Declarative description of a Section 6.1 synthetic workload."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ValidationError


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the paper's synthetic workload generator (Section 6.1).

    Attributes
    ----------
    num_sites, num_objects:
        ``M`` and ``N``.
    update_ratio:
        The paper's ``U`` as a fraction (0.05 == "U=5%"): per-object total
        updates are ``U`` times total reads, jittered uniformly over
        ``[T/2, 3T/2]``.
    capacity_ratio:
        The paper's ``C`` as a fraction (0.15 == "C=15%"): per-site
        capacity is drawn uniformly from
        ``[C * total_size / 2, 3 * C * total_size / 2]``.
    read_low, read_high:
        Inclusive bounds of the per-(site, object) uniform read counts
        (paper: 1..40).
    size_mean:
        Mean object size; sizes are uniform integers over
        ``[1, 2 * size_mean - 1]`` (paper: mean 35).
    cost_low, cost_high:
        Inclusive bounds of the uniform link costs (paper: 1..10).
    """

    num_sites: int
    num_objects: int
    update_ratio: float = 0.05
    capacity_ratio: float = 0.15
    read_low: int = 1
    read_high: int = 40
    size_mean: int = 35
    cost_low: int = 1
    cost_high: int = 10

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValidationError(
                f"num_sites must be >= 1, got {self.num_sites}"
            )
        if self.num_objects < 1:
            raise ValidationError(
                f"num_objects must be >= 1, got {self.num_objects}"
            )
        if self.update_ratio < 0:
            raise ValidationError(
                f"update_ratio must be >= 0, got {self.update_ratio}"
            )
        if self.capacity_ratio <= 0:
            raise ValidationError(
                f"capacity_ratio must be > 0, got {self.capacity_ratio}"
            )
        if not 0 <= self.read_low <= self.read_high:
            raise ValidationError(
                f"need 0 <= read_low <= read_high, got "
                f"({self.read_low}, {self.read_high})"
            )
        if self.size_mean < 1:
            raise ValidationError(
                f"size_mean must be >= 1, got {self.size_mean}"
            )
        if not 0 < self.cost_low <= self.cost_high:
            raise ValidationError(
                f"need 0 < cost_low <= cost_high, got "
                f"({self.cost_low}, {self.cost_high})"
            )

    def with_overrides(self, **kwargs: object) -> "WorkloadSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_sites": self.num_sites,
            "num_objects": self.num_objects,
            "update_ratio": self.update_ratio,
            "capacity_ratio": self.capacity_ratio,
            "read_low": self.read_low,
            "read_high": self.read_high,
            "size_mean": self.size_mean,
            "cost_low": self.cost_low,
            "cost_high": self.cost_high,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        return cls(**data)  # type: ignore[arg-type]


__all__ = ["WorkloadSpec"]
