"""Self-test of the benchmark's oracle: ``python3 perfbench/check_inputs.py``.

Checks the closed-form census and the histograms built on it against a bit
scan for n <= 12, that every planted model gives a legal triangle, and that
an illegal one is refused. Exits 1 on the first failure.
"""

from __future__ import annotations

import sys

from inputs import (
    HALF_TRIANGLE,
    PLANTED,
    Planted,
    canonical_histogram,
    check_census,
    gap_distribution,
    planted_rows,
)

N_MAX = 12


def scan_histogram(model: Planted, n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for code in range(1, 1 << n):
        gap = code.bit_length() - (code & -code).bit_length()
        if gap > model.limit(n):
            continue
        if model.bcount is not None and not model.bcount[0] <= code.bit_count() <= model.bcount[1]:
            continue
        k = model.affine[0] * gap + model.affine[1]
        counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def main() -> int:
    check_census(N_MAX)
    for n in range(1, N_MAX + 1):
        if sum(gap_distribution(n).values()) != 2**n - 1:
            raise ValueError(f"gap distribution at n={n} does not sum to 2**n - 1")
        for model in PLANTED:
            if model.histogram(n) != scan_histogram(model, n):
                raise ValueError(f"{model.text}: histogram at n={n} disagrees with the scan")
    for n in (1, 2, 3):
        if tuple(canonical_histogram(n).values()) != HALF_TRIANGLE[n - 1]:
            raise ValueError(f"canonical model does not give triangle row {n}")
    for model in PLANTED:
        planted_rows(model, 22)
    for illegal in (Planted("inf", affine=(1, 0)), Planted("inf", affine=(-1, 2))):
        try:
            planted_rows(illegal, 22)
        except ValueError:
            continue
        raise ValueError(f"{illegal.text} was accepted but is not a legal triangle")
    print(f"ok: census, histograms and planted triangles agree with the scan for n <= {N_MAX}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValueError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
