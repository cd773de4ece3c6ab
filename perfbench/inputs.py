"""Inputs and expected answers, computed without importing gaptri.

Every number the benchmark checks the program against comes from here, so
that a defect in gaptri cannot also hide in the oracle. The base fact is the
census of length-n binary sequences with at least one B, split by gap (last
B position minus first B position) and B-count b:

    #(gap=0, b=1) = n
    #(gap=g, b)   = (n - g) * C(g - 1, b - 2)    for 1 <= g <= n - 1, 2 <= b <= g + 1

(the first B has n - g places; b - 2 further B's sit among the g - 1 inner
positions). ``check_census`` compares it with a bit scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

#: Rows 1..9 of the order-1/2 triangle (OEIS A223168), the paper's target.
HALF_TRIANGLE = (
    (1,),
    (1, 2),
    (3, 2),
    (3, 12, 4),
    (15, 20, 4),
    (15, 90, 60, 8),
    (105, 210, 84, 8),
    (105, 840, 840, 224, 16),
    (945, 2520, 1512, 288, 16),
)

TypeOfGap = Callable[[int, int], int]


def census(n: int, gap: int, b: int) -> int:
    """Number of length-n sequences with this gap and B-count (closed form)."""
    if gap == 0:
        return n if b == 1 else 0
    if not 1 <= gap < n or not 2 <= b <= gap + 1:
        return 0
    return (n - gap) * comb(gap - 1, b - 2)


def scan_census(n: int) -> dict[tuple[int, int], int]:
    """The same census by visiting all 2**n codes; the reference for ``census``."""
    counts: dict[tuple[int, int], int] = {}
    for code in range(1, 1 << n):
        key = (code.bit_length() - (code & -code).bit_length(), code.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_census(n_max: int = 12) -> None:
    """Raise ValueError unless the closed form equals the bit scan for n <= n_max."""
    for n in range(1, n_max + 1):
        formula = {
            (g, b): census(n, g, b)
            for g in range(n)
            for b in range(1, n + 1)
            if census(n, g, b)
        }
        if formula != scan_census(n):
            raise ValueError(f"closed-form census disagrees with the bit scan at n={n}")


def gap_distribution(n: int) -> dict[int, int]:
    """{gap: count} over all length-n sequences with a B: what ``stats -n`` prints."""
    return {g: sum(census(n, g, b) for b in range(1, n + 1)) for g in range(n)}


def histogram(
    n: int, limit: int, type_of_gap: TypeOfGap, bcount: tuple[int, int] | None = None
) -> dict[int, int]:
    """{k: count} of length-n sequences with gap <= limit (and B-count in
    ``bcount``), typed by ``type_of_gap(n, gap)``; zero counts omitted."""
    counts: dict[int, int] = {}
    for g in range(min(limit, n - 1) + 1):
        lo, hi = bcount if bcount is not None else (1, n)
        c = sum(census(n, g, b) for b in range(lo, hi + 1))
        if c:
            k = type_of_gap(n, g)
            counts[k] = counts.get(k, 0) + c
    return dict(sorted(counts.items()))


def canonical_histogram(n: int) -> dict[int, int]:
    """Histogram of the paper's canonical model: gap <= 1, k = 2 - gap for
    even n and gap + 1 for odd n, any B-count."""
    return histogram(n, 1, lambda m, g: 2 - g if m % 2 == 0 else g + 1)


@dataclass(frozen=True)
class Planted:
    """A model ``gap<=<gap>; type=affine(a,b); bcount=<bcount>`` to plant in a triangle."""

    gap: str  # "inf", "n/2" or a decimal ceiling
    affine: tuple[int, int] = (1, 1)
    bcount: tuple[int, int] | None = None

    @property
    def text(self) -> str:
        a, b = self.affine
        bc = "*" if self.bcount is None else f"{self.bcount[0]}..{self.bcount[1]}"
        return f"gap<={self.gap}; type=affine({a},{b}); bcount={bc}"

    def limit(self, n: int) -> int:
        if self.gap == "inf":
            return n - 1
        if self.gap == "n/2":
            return n // 2
        return int(self.gap)

    def histogram(self, n: int) -> dict[int, int]:
        a, b = self.affine
        return histogram(n, self.limit(n), lambda _n, g: a * g + b, self.bcount)


#: The long-rows workload plants one of these, chosen by the seed. Each gives
#: a legal triangle: types 1..len contiguous and row lengths non-decreasing.
PLANTED = tuple(
    Planted(gap, bcount=bcount) for gap in ("inf", "n/2", "3") for bcount in (None, (1, 2))
)


def planted_rows(model: Planted, rows: int) -> list[tuple[int, ...]]:
    """Rows 1..rows of the triangle whose row n is the model's histogram at n.

    Raises ValueError when the histograms do not form a legal triangle, i.e.
    when some row's types are not exactly 1..len or a row is shorter than the
    one before it; gaptri would refuse such a file or never match it.
    """
    out: list[tuple[int, ...]] = []
    for n in range(1, rows + 1):
        hist = model.histogram(n)
        if list(hist) != list(range(1, len(hist) + 1)):
            raise ValueError(f"{model.text}: row {n} types {list(hist)} are not 1..len")
        if out and len(hist) < len(out[-1]):
            raise ValueError(f"{model.text}: row {n} is shorter than row {n - 1}")
        out.append(tuple(hist.values()))
    return out


def triangle_text(model: Planted, rows: list[tuple[int, ...]]) -> str:
    """Native triangle format, with the planted model as a leading comment."""
    body = "".join(" ".join(str(x) for x in row) + "\n" for row in rows)
    return f"# planted: {model.text}\n" + body
