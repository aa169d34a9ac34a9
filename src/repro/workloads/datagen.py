"""Deterministic seeded data generation.

Every workload takes a seed and produces identical data for identical
seeds, so experiments are reproducible and equivalence checks compare
like with like.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

_SURNAMES = (
    "SMITH", "JONES", "TAYLOR", "BROWN", "WILSON", "EVANS", "WALKER",
    "WRIGHT", "ROBERTS", "GREEN", "HALL", "WOOD", "HARRIS", "MARTIN",
    "COOPER", "KING", "CLARK", "BAKER", "TURNER", "HILL", "MOORE",
    "PARKER", "COOK", "BELL", "KELLY", "WARD", "FOSTER", "BROOKS",
)

_DEPT_NAMES = ("SALES", "ENG", "ADMIN", "PLANT", "STAFF", "AUDIT",
               "STORE", "MAINT")

_CITIES = ("DETROIT", "HOUSTON", "CHICAGO", "ATLANTA", "BOSTON",
           "DENVER", "DALLAS", "MIAMI")


class DataGen:
    """A seeded generator with 1979-flavoured vocabularies."""

    def __init__(self, seed: int = 1979):
        self._random = random.Random(seed)

    def surname(self, index: int | None = None) -> str:
        """A surname, made unique with a numeric suffix when indexed."""
        name = self._random.choice(_SURNAMES)
        if index is None:
            return name
        return f"{name}-{index:04d}"

    def dept_name(self) -> str:
        return self._random.choice(_DEPT_NAMES)

    def city(self) -> str:
        return self._random.choice(_CITIES)

    def age(self, low: int = 18, high: int = 65) -> int:
        return self._random.randint(low, high)

    def years(self, high: int = 30) -> int:
        return self._random.randint(0, high)

    def choice(self, options: Sequence[Any]) -> Any:
        return self._random.choice(options)

    def int_between(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def chance(self, probability: float) -> bool:
        return self._random.random() < probability

    def sample(self, options: Sequence[Any], count: int) -> list[Any]:
        return self._random.sample(list(options), count)
