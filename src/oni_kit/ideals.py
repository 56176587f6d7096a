"""Square-free monomial ideals with canonical minimal generators.

An ideal is stored as the antichain of its minimal generating supports.
Two degenerate cases get explicit representations: the zero ideal has no
generators at all, the unit ideal has the single generator 1 (empty
support).  Both round-trip through JSON with explicit flags.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError
from .universe import (
    SpernerFamily,
    Universe,
    _json_sets,
    _masks_into,
    minimal_masks,
    minimal_transversals,
)


class SquareFreeIdeal:
    __slots__ = ("universe", "generators")

    def __init__(self, generators: SpernerFamily):
        self.universe = generators.universe
        self.generators = generators

    @classmethod
    def from_supports(
        cls, universe: Universe, supports: Iterable[Iterable[str]]
    ) -> "SquareFreeIdeal":
        """Ideal generated by the given supports; minimalized on the way in."""
        masks = minimal_masks(universe.mask_of(s) for s in supports)
        return cls(SpernerFamily._canonical(universe, masks))

    @classmethod
    def zero(cls, universe: Universe) -> "SquareFreeIdeal":
        return cls(SpernerFamily(universe, ()))

    @classmethod
    def unit(cls, universe: Universe) -> "SquareFreeIdeal":
        return cls(SpernerFamily(universe, (0,)))

    @property
    def is_zero(self) -> bool:
        return len(self.generators) == 0

    @property
    def is_unit(self) -> bool:
        return self.generators.masks == (0,)

    def sum(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._check(other)
        masks = minimal_masks(self.generators.masks + other.generators.masks)
        return SquareFreeIdeal(SpernerFamily._canonical(self.universe, masks))

    def intersect(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._check(other)
        masks = minimal_masks(
            a | b for a in self.generators.masks for b in other.generators.masks
        )
        return SquareFreeIdeal(SpernerFamily._canonical(self.universe, masks))

    def minimal_primes(self) -> SpernerFamily:
        """Supports of the minimal primes: the minimal transversals of the
        generating antichain.  The zero ideal reports no support-representable
        primes (check is_zero alongside); the unit ideal has none at all."""
        if self.is_unit:
            raise InputError("unit ideal has no primes")
        if self.is_zero:
            return SpernerFamily(self.universe, ())
        return minimal_transversals(self.generators)

    def is_unmixed(self) -> bool:
        return len({p.bit_count() for p in self.minimal_primes().masks}) <= 1

    def extended_to(self, universe: Universe) -> "SquareFreeIdeal":
        """The same generators read over a larger universe, still in
        canonical order (see _masks_into)."""
        masks = _masks_into(self.universe, universe, self.generators.masks)
        return SquareFreeIdeal(SpernerFamily._canonical(universe, masks))

    def _check(self, other: "SquareFreeIdeal") -> None:
        if self.universe != other.universe:
            raise InputError("ideals live over different universes")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SquareFreeIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        if self.is_zero:
            return "SquareFreeIdeal(0)"
        if self.is_unit:
            return "SquareFreeIdeal(1)"
        gens = ", ".join("".join(s) for s in self.generators.members)
        return f"SquareFreeIdeal(<{gens}>)"

    def to_json_obj(self) -> dict:
        return {
            "universe": list(self.universe.labels),
            "generators": [list(s) for s in self.generators.members],
            "zero": self.is_zero,
            "unit": self.is_unit,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SquareFreeIdeal":
        ideal = cls.from_supports(*_json_sets(obj, "ideal", "universe", "generators"))
        for flag, actual in (("zero", ideal.is_zero), ("unit", ideal.is_unit)):
            given = obj.get(flag, actual)
            if not isinstance(given, bool):
                raise InputError(f'ideal JSON flag "{flag}" must be true or false')
            if given != actual:
                raise InputError(f'ideal JSON flag "{flag}" contradicts the generators')
        return ideal
