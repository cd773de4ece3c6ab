"""The whole pipeline against ``reference.py``: model text and triangle file in,
``--out`` records of ``verify``, ``obstruct`` and ``search`` out, byte for byte."""

import ast
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from gaptri import cli

EMBEDDED = (
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


def plants(counts, width):
    """Whether a histogram can be a triangle row after one of this width:
    its types are 1..L, with L at least that width and at least 1."""
    return list(counts) == list(range(1, max(width, len(counts), 1) + 1))


def planted(model, height):
    """Rows 1..height of the model's histograms, or None if one cannot be a row."""
    rows = []
    for n in range(1, height + 1):
        counts = reference.histogram(model, n)
        if not plants(counts, len(rows[-1]) if rows else 1):
            return None
        rows.append(tuple(counts.values()))
    return rows


#: The family models whose histograms at n = 1, 2, 3 are a triangle's rows.
PLANTING = [text for text in reference.family() if planted(reference.read_model(text), 3)]

PAIR = st.builds("{},{}".format, st.integers(-3, 3), st.integers(-3, 3))

#: Texts of the model grammar; a B-count window from 0 or with hi < lo is refused.
MODEL_TEXTS = st.builds(
    "gap<={}; type={}; bcount={}".format,
    st.one_of(st.integers(0, 13).map(str), st.sampled_from(["n/2", "inf"])),
    st.one_of(
        st.just("parity-paper"),
        PAIR.map("affine({})".format),
        st.builds("even({})/odd({})".format, PAIR, PAIR),
    ),
    st.one_of(
        st.just("*"),
        st.builds(lambda lo, more: f"{lo}..{lo + more}", st.integers(0, 8), st.integers(-1, 6)),
    ),
)


@st.composite
def cases(draw, most_rows):
    """(model text, rows 1..h, a row span). Where a planting model's
    histogram can be the next row, it mostly is; the other rows are random.
    The model is the planting one or a drawn text."""
    planting = draw(st.sampled_from(PLANTING))
    model, rows, width = reference.read_model(planting), [], 1
    for n in range(1, draw(st.integers(1, most_rows)) + 1):
        counts = reference.histogram(model, n)
        if plants(counts, width) and draw(st.integers(0, 3)):
            row = tuple(counts.values())
        else:
            row = tuple(draw(st.lists(st.integers(1, 40), min_size=width, max_size=width + 1)))
        rows.append(row)
        width = len(row)
    ends = draw(st.tuples(st.integers(1, len(rows)), st.integers(1, len(rows))))
    model = draw(st.sampled_from([planting, draw(MODEL_TEXTS)]))
    return model, rows, range(min(ends), max(ends) + 1)


def run_out(command, rows, span, *options):
    """(exit code, bytes of the --out file or None) of ``gaptri <command>`` in process."""
    with tempfile.TemporaryDirectory() as folder:
        source, out = os.path.join(folder, "t.txt"), os.path.join(folder, "out")
        Path(source).write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
        argv = [command, "--triangle", source, "--rows", f"{span[0]}..{span[-1]}", "--out", out]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv + list(options))
        return code, Path(out).read_bytes() if os.path.exists(out) else None


@settings(max_examples=300, deadline=None, derandomize=True)
@example(case=("canonical", EMBEDDED, range(1, 10)))
@given(case=cases(reference.MAX_N))
def test_verify_and_obstruct_records_equal_the_reference(case):
    model, rows, span = case
    try:
        reference.read_model(model)
    except ValueError:
        for command in ("verify", "obstruct"):
            assert run_out(command, rows, span, "--model", model) == (2, None)
        return
    verify = "".join(reference.verify_lines(model, rows, span))
    code = 1 if "match=false" in verify else 0
    assert run_out("verify", rows, span, "--model", model) == (code, verify.encode())
    obstruct = "".join(reference.obstruct_lines(model, rows, span))
    assert run_out("obstruct", rows, span, "--model", model) == (0, obstruct.encode())


@settings(max_examples=20, deadline=None, derandomize=True)
@example(case=(None, EMBEDDED, range(1, 5)))
@given(case=cases(5))
def test_search_records_equal_the_reference(case):
    _, rows, span = case
    expected = "".join(reference.search_lines(rows, span)).encode()
    assert run_out("search", rows, span, "--top", "0") == (0, expected)


def test_reference_reads_the_papers_rows_1_to_3():
    canonical = reference.read_model("canonical")
    assert [tuple(reference.histogram(canonical, n).values()) for n in (1, 2, 3)] == [
        *EMBEDDED[:3]
    ]


def test_reference_imports_only_the_standard_library():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names
    assert "gaptri" not in imported
