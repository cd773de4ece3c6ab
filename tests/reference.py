"""A brute-force reference for the ``--out`` records of ``gaptri verify``,
``obstruct`` and ``search``, sharing no code with gaptri.

It imports only the standard library. It reads model texts with its own
regex, and for each length n <= MAX_N it scans every code, taking each
sequence's gap and B-count from its binary digits (1 = B); validity and type
follow from those two numbers by the rules in README's model grammar.
"""

import re
from collections import Counter
from functools import cache

MAX_N = 12

MODEL_RE = re.compile(
    r"gap<=([0-9]+|n/2|inf); "
    r"type=(?:(parity-paper)|affine\((-?[0-9]+),(-?[0-9]+)\)"
    r"|even\((-?[0-9]+),(-?[0-9]+)\)/odd\((-?[0-9]+),(-?[0-9]+)\)); "
    r"bcount=(?:\*|([0-9]+)\.\.([0-9]+))"
)


def read_model(text):
    """(gap bound text, (even pair, odd pair), B-count window or None); a text
    outside the grammar, or a window without 1 <= lo <= hi, raises ValueError."""
    if text == "canonical":
        text = "gap<=1; type=parity-paper; bcount=*"
    match = MODEL_RE.fullmatch(text)
    if match is None:
        raise ValueError(text)
    gap, paper, *numbers = match.groups()
    a, b, ea, eb, oa, ob, lo, hi = (None if x is None else int(x) for x in numbers)
    # The paper's types: k = 2 - gap at even n, gap + 1 at odd n.
    pairs = ((-1, 2), (1, 1)) if paper else ((ea, eb), (oa, ob)) if a is None else ((a, b), (a, b))
    if lo is not None and not 1 <= lo <= hi:
        raise ValueError(text)
    return gap, pairs, None if lo is None else (lo, hi)


@cache
def census(n):
    """How many length-n sequences have each (gap, B-count), by a scan of all 2**n codes."""
    assert 1 <= n <= MAX_N
    found = Counter()
    for code in range(1, 2**n):
        digits = format(code, f"0{n}b")
        found[digits.rindex("1") - digits.index("1"), digits.count("1")] += 1
    return found


def histogram(model, n):
    """{type: count} over the valid length-n sequences, types ascending."""
    gap, pairs, window = model
    limit = n // 2 if gap == "n/2" else n - 1 if gap == "inf" else int(gap)
    lo, hi = window or (1, n)
    a, b = pairs[n % 2]
    counts = Counter()
    for (g, bs), count in census(n).items():
        if g <= limit and lo <= bs <= hi:
            counts[a * g + b] += count
    return dict(sorted(counts.items()))


def matches(model, rows, n):
    return histogram(model, n) == dict(enumerate(rows[n - 1], start=1))


def verify_lines(text, rows, span):
    model = read_model(text)
    for n in span:
        predicted = ",".join(f"{k}:{c}" for k, c in histogram(model, n).items())
        target = ",".join(map(str, rows[n - 1]))
        flag = str(matches(model, rows, n)).lower()
        yield f"row={n} match={flag} predicted={predicted} target={target}\n"


def obstruct_lines(text, rows, span):
    model = read_model(text)
    for n in span:
        provided, required = len(histogram(model, n)), len(rows[n - 1])
        flag = str(provided < required).lower()
        yield f"row={n} provided={provided} required={required} obstructed={flag}\n"


def family():
    """The texts of the 6216 candidates ``search`` ranks."""
    pairs = [f"{a},{b}" for a in (-1, 0, 1, 2) for b in (0, 1, 2, 3)]
    maps = ["parity-paper", "affine(1,1)", "affine(-1,2)"]
    maps += [f"even({even})/odd({odd})" for even in pairs for odd in pairs]
    return [
        f"gap<={gap}; type={m}; bcount={bcount}"
        for gap in ("0", "1", "2", "3", "n/2", "inf")
        for bcount in ("*", "1..1", "1..2", "2..2")
        for m in maps
    ]


def search_lines(rows, span):
    """Every candidate's record, by score descending and then text ascending."""
    scored = []
    for text in family():
        model = read_model(text)
        matched = [n for n in span if matches(model, rows, n)]
        scored.append((-len(matched), text, ",".join(map(str, matched)) or "-"))
    return [f"{text}\t{-score}\t{matched}\n" for score, text, matched in sorted(scored)]
