"""Permutations of Z/N, stored as image sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Permutation:
    """A bijection on Z/N stored as the image sequence (p(0), ..., p(N-1))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation needs at least one point")
        object.__setattr__(self, "images", tuple(int(v) for v in self.images))
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images {self.images} are not a permutation of 0..{n - 1}")

    @property
    def modulus(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i % self.modulus]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    @classmethod
    def from_images(cls, images: Iterable[int]) -> Permutation:
        return cls(tuple(images))
