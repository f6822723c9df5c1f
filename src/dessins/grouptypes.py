"""Classification tags for finite symmetry groups of the sphere.

The finite groups that can occur are cyclic, dihedral, tetrahedral (A4),
octahedral (S4) and icosahedral (A5).  Classification works from the
group order and the element-order census alone, so the same decision
table serves permutation groups and matrix groups alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class GroupType:
    kind: str  # "cyclic" | "dihedral" | "A4" | "S4" | "A5" | "other"
    n: int | None = None

    @staticmethod
    def cyclic(n: int) -> "GroupType":
        return GroupType("cyclic", n)

    @staticmethod
    def dihedral(n: int) -> "GroupType":
        return GroupType("dihedral", n)

    @staticmethod
    def a4() -> "GroupType":
        return GroupType("A4")

    @staticmethod
    def s4() -> "GroupType":
        return GroupType("S4")

    @staticmethod
    def a5() -> "GroupType":
        return GroupType("A5")

    @staticmethod
    def other() -> "GroupType":
        return GroupType("other")

    @property
    def is_cyclic(self) -> bool:
        return self.kind == "cyclic"

    @property
    def expected_order(self) -> int | None:
        """Group order implied by the tag (None for 'other')."""
        return {
            "cyclic": self.n,
            "dihedral": 2 * self.n if self.n else None,
            "A4": 12,
            "S4": 24,
            "A5": 60,
        }.get(self.kind)

    def __str__(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.n}"
        if self.kind == "dihedral":
            return f"D{self.n}"
        return self.kind


def parse_group_tag(text: str) -> GroupType:
    """Parse tags like "C6", "D3", "A4", "S4", "A5"."""
    text = text.strip()
    if text in ("A4", "S4", "A5"):
        return GroupType(text)
    m = re.fullmatch(r"([CD])(\d+)", text)
    if m:
        n = int(m.group(2))
        if n >= 1:
            return GroupType.cyclic(n) if m.group(1) == "C" else GroupType.dihedral(n)
    raise ValueError(f"unrecognized group tag {text!r}")


# Element-order censuses of the three exceptional groups.
_A4_CENSUS = {1: 1, 2: 3, 3: 8}
_S4_CENSUS = {1: 1, 2: 9, 3: 8, 4: 6}
_A5_CENSUS = {1: 1, 2: 15, 3: 20, 5: 24}


def classify_census(order: int, census: dict[int, int]) -> GroupType:
    """Classify a finite group from its order and element-order census.

    Order-2 groups are reported as C2, never as a dihedral group of rank 1.

    Abelianness never decides a tag.  A group of order 2n is D_n here when
    it has an element of order n and as many involutions as D_n: n for
    odd n, n + 1 for even n.  An abelian group of order 2n with an element
    of order n is C_2n, with one involution, or for even n also C_n x C_2,
    with three.  For n >= 3 the dihedral count is n >= 3 (odd n) or
    n + 1 >= 5 (even n), so it never meets an abelian count; for n <= 2
    the tags are abelian themselves (C2, and D2 = C_2 x C_2).
    """
    if order == 1:
        return GroupType.cyclic(1)
    if census.get(order, 0):
        return GroupType.cyclic(order)
    if order == 12 and census == _A4_CENSUS:
        return GroupType.a4()
    if order == 24 and census == _S4_CENSUS:
        return GroupType.s4()
    if order == 60 and census == _A5_CENSUS:
        return GroupType.a5()
    if order % 2 == 0:
        n = order // 2
        expected_involutions = n + 1 if n % 2 == 0 else n
        has_rotation = census.get(n, 0) > 0
        if has_rotation and census.get(2, 0) == expected_involutions:
            return GroupType.dihedral(n)
    return GroupType.other()
