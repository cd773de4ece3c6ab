"""A fuzz guard on the CLI's contract: whatever argv it is given, ``main``
returns 0, 1 or 2 without a traceback; exit 2 prints nothing to stdout and
creates no ``--out`` file; and a written ``--out`` file holds one
newline-terminated line per record.

Each argv is built for one of the six subcommands from grammar pieces: row
ranges, model texts, triangle and b-file texts, and ``--out`` targets inside
a temporary directory. Every example runs in process. Error texts are built
when ``main`` prints them, so a text that cannot be built shows here as an
escaped exception. A second test runs ``search``, ``verify`` and ``obstruct``
over rows 1..N of a 2,000-row all-ones triangle under the same contract, each
example within a one-second deadline.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from gaptri import cli, default_family, embedded_half_triangle, format_model, format_triangle

OVER_LONG = "9" * 5000
ARABIC_INDIC_THREE = "\u0663"


def mostly(good, bad):
    """One piece, well formed three times in four, so that whole argvs often
    get past the parser and reach the commands and their files."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: st.sampled_from(good if ok else bad)
    )


ROWS = mostly(
    ["1..3", "2", "1..9", "2..5", "4..4", "4..20"],
    ["0..2", "3..1", "1..", "1..1..2", " 1", f"1..{ARABIC_INDIC_THREE}", ARABIC_INDIC_THREE]
    + [f"1..{OVER_LONG}", "1..-1", ""],
)
LENGTHS = mostly(["1", "3", "8"], ["0", "31", "-2", "x", "1_0", ARABIC_INDIC_THREE, OVER_LONG])
TOPS = mostly(["0", "1", "3"], ["-1", "x", "1_0", OVER_LONG])
FORMATS = mostly([[], ["--format", "table"], ["--format", "tsv"]], [["--format", "csv"]])
ROW_RULES = mostly(
    ["floor(n/2)+1", "explicit:1,2,2,3,3,4,4,5,5"], ["explicit:", "explicit:1,x", "n+1"]
)

FAMILY_TEXTS = sorted({format_model(m) for m in default_family().candidates()})
MODELS = mostly(["canonical", "gap<=3; type=parity-paper; bcount=2..4"], [""]) | st.builds(
    # A family member's text, with its characters from i to j replaced.
    lambda text, i, j, insert: text[:i] + insert + text[j:],
    st.sampled_from(FAMILY_TEXTS[::50]),
    st.integers(0, 60),
    st.integers(0, 60),
    mostly([""], [";", "=", "-", "0", "9" * 30, OVER_LONG, "..", "(", " "]),
)

TRIANGLE = embedded_half_triangle()
TERMS = [entry for row in TRIANGLE.rows for entry in row]
JUNK = ["0", "-3", "1 0", "x", OVER_LONG, "1\u30002", "1\u00a01"]


def text_of(lines, junk):
    """The text of a file: a well-formed file or some leading lines of it, with
    an optional byte order mark and up to three blank, comment or junk lines
    put in anywhere."""

    def build(bom, count, extras):
        body = list(lines[:count])
        for at, extra in extras:
            body.insert(at, extra)
        return bom + "".join(line + "\n" for line in body)

    return st.builds(
        build,
        st.sampled_from(["", "\ufeff"]),
        mostly([len(lines)], range(len(lines))),
        st.lists(
            st.tuples(st.integers(0, len(lines)), mostly(["", "  ", "\t", "# comment"], junk)),
            max_size=3,
        ),
    )


# A triangle source: the argv that names it, and the text of the file it reads.
GOOD_SOURCES = st.one_of(
    st.just(([], None)),
    st.just((["--triangle", "embedded"], None)),
    st.tuples(
        st.just(["--triangle", "{dir}/input.txt"]),
        text_of(format_triangle(TRIANGLE).splitlines(), JUNK + ["1 2 3 4 5 6"]),
    ),
    st.builds(
        lambda rule, text: (["--bfile", "{dir}/input.txt", "--row-rule", rule], text),
        ROW_RULES,
        text_of([f"{i} {v}" for i, v in enumerate(TERMS, start=1)], JUNK + ["3 1", "1 2 3"]),
    ),
)
BAD_SOURCES = st.sampled_from(
    [(["--triangle", "{dir}/missing.txt"], None), (["--row-rule", "floor(n/2)+1"], None)]
)
SOURCES = st.sampled_from([True, True, True, False]).flatmap(
    lambda ok: GOOD_SOURCES if ok else BAD_SOURCES
)
# A new file half the time; otherwise a target that no file can be written to.
OUT_TARGETS = st.sampled_from(["{dir}/new.txt"] * 3 + ["{dir}/folder", "{dir}/missing/new.txt", ""])


def optional(flag, values):
    return st.one_of(st.just([]), st.builds(lambda v: [flag, v], values))


def argv_for(command):
    if command == "enumerate":
        return st.builds(
            lambda n, model, only, fmt: (["enumerate", "-n", n, *model, *only, *fmt], None),
            LENGTHS,
            optional("--model", MODELS),
            st.sampled_from([[], ["--valid-only"]]),
            FORMATS,
        )
    if command == "stats":
        return st.builds(lambda n, fmt: (["stats", "-n", n, *fmt], None), LENGTHS, FORMATS)
    if command == "ingest":
        return st.builds(
            lambda source, out: (["ingest", *source[0], *out], source[1]),
            SOURCES,
            optional("--out", OUT_TARGETS),
        )
    extra = optional("--top", TOPS) if command == "search" else optional("--model", MODELS)
    return st.builds(
        lambda source, rows, more, out, fmt: (
            [command, *source[0], *rows, *more, *out, *fmt],
            source[1],
        ),
        SOURCES,
        optional("--rows", ROWS),
        extra,
        optional("--out", OUT_TARGETS),
        FORMATS,
    )


COMMANDS = ["enumerate", "stats", "verify", "obstruct", "search", "ingest"]
INVOCATIONS = st.sampled_from(COMMANDS).flatmap(argv_for)


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(invocation=INVOCATIONS)
def test_main_keeps_its_contract(invocation):
    template, text = invocation
    with tempfile.TemporaryDirectory() as folder:
        os.mkdir(os.path.join(folder, "folder"))
        if text is not None:
            with open(os.path.join(folder, "input.txt"), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [arg.replace("{dir}", folder) for arg in template]
        before = sorted(os.listdir(folder))
        home = os.getcwd()
        os.chdir(folder)  # so that what `--out ""` might leave shows here
        try:
            code, stdout, stderr = run(argv)
        finally:
            os.chdir(home)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr, argv
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        after = sorted(os.listdir(folder))
        if code == 2:
            assert stdout == "", argv
            assert after == before, argv  # no --out file, no temporary left behind
            return
        if out is None:
            return
        assert after == sorted(before + ["new.txt"]), argv
        with open(out, encoding="utf-8") as handle:
            written = handle.read()
        if argv[0] == "ingest":
            # The file holds what ingest prints without --out.
            records = run(argv[: argv.index("--out")])[1]
            assert written == records, argv
        else:
            records = 6216 if argv[0] == "search" else len(stdout.splitlines()) - 1
            assert written.endswith("\n"), argv
            assert written.count("\n") == records, argv


#: Rows of the all-ones triangle that the long-range fuzz reads.
ONES = 2000
# Family members with a constant threshold only: verify prints every predicted
# count, about 1.7 GB over 2,000 rows under gap<=inf.
NARROW_MODELS = st.sampled_from(
    [text for text in FAMILY_TEXTS[::50] if not text.startswith(("gap<=n/2", "gap<=inf"))]
)


def long_range(command):
    extra = optional("--top", TOPS) if command == "search" else optional("--model", NARROW_MODELS)
    return st.builds(
        lambda last, more, out, fmt: (
            [command, "--triangle", "{dir}/input.txt", "--rows", f"1..{last}", *more, *out, *fmt],
            "1\n" * ONES,
        ),
        st.one_of(st.just(ONES), st.integers(1, ONES)),
        extra,
        optional("--out", OUT_TARGETS),
        FORMATS,
    )


@settings(max_examples=40, deadline=1000, derandomize=True)
@given(invocation=st.sampled_from(["search", "verify", "obstruct"]).flatmap(long_range))
def test_long_row_ranges_keep_the_contract_within_a_second(invocation):
    # The rows 1..N of a long all-ones triangle: each example keeps the
    # contract above, and hypothesis's deadline bounds its time.
    test_main_keeps_its_contract.hypothesis.inner_test(invocation)
