"""The CLI exit contract under mutated input.

Every run of ``cli.main`` ends in 0 (ok), 1 (mismatch) or 2 (bad input) and
lets no exception escape, whatever the file or the ``--set`` values.  The
sources are the demo algebras and ``catalog show`` files, mutated token by
token (replace, insert, delete); the witness search is capped at
LIESYMP_WITNESS_BOUND=2 so that no draw spends long in it.
"""

import glob
import os
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.cli import _entry_to_file, main
from liesymp.fileformat import print_file

ROOT = Path(__file__).resolve().parent.parent
SHOWN = (("n4_1", {}), ("n6_5", {}), ("n6_8", {}), ("L", {"n": 4}), ("Q", {"n": 5}),
         ("abelian", {"n": 2}))
SOURCES = tuple(
    [Path(p).read_text(encoding="utf-8") for p in sorted(glob.glob(str(ROOT / "demos/algebras/*.lie")))]
    + [print_file(_entry_to_file(build_entry(name, **ps))) for name, ps in SHOWN]
)
TOKEN = re.compile(r"\s+|\w+|.", re.DOTALL)
EXTRA_TOKENS = (
    "0", "1", "-1", "2", "1/2", "1/0", "-", "*", "+", "=", "[", "]", ",", "\n", " ",
    "algebra", "basis", "torus", "e0", "e1", "e99", "99999999999", "#", "x",
)
FILE_COMMANDS = (
    ["check"], ["props"], ["der"], ["der", "--complete"], ["symplectic"],
    ["symplectic", "--json"], ["symplectic", "--witness"], ["symplectic", "--exact-only"],
)
CONTRACT = {0, 1, 2}


def _run(argv) -> int:
    with mock.patch.dict(os.environ, {"LIESYMP_WITNESS_BOUND": "2"}):
        code = main(argv)
    assert code in CONTRACT, (argv, code)
    return code


@st.composite
def mutated_sources(draw):
    tokens = TOKEN.findall(draw(st.sampled_from(SOURCES)))
    pool = st.sampled_from(sorted(set(tokens)) + list(EXTRA_TOKENS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        i = draw(st.integers(0, len(tokens)))
        if kind == "insert":
            tokens.insert(i, draw(pool))
        elif i < len(tokens):
            if kind == "replace":
                tokens[i] = draw(pool)
            else:
                del tokens[i]
    return "".join(tokens)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=120, deadline=None)
@given(source=mutated_sources(), command=st.sampled_from(FILE_COMMANDS))
def test_mutated_files_keep_the_exit_contract(workdir, source, command):
    path = workdir / "mutated.lie"
    path.write_text(source, encoding="utf-8")
    _run(command + [str(path)])


# --set values: well-formed and not, with zero denominators, and family
# sizes from invalid through small to over the size bound (the sizes in
# between are valid but slow, and the exit contract does not depend on them)
KEYS = st.sampled_from(("n", "a", "alpha", "", " n ", "x y"))
VALUES = st.one_of(
    st.sampled_from(("1/0", "0/0", "-3/0", " 5/00")),
    st.sampled_from(("", "abc", "1e3", "0", "1/2", "-1", " 7 ", "=")),
    st.integers(-3, 9).map(str),
    st.integers(65, 10**12).map(str),
    st.fractions(max_denominator=5).map(str),
    st.text(alphabet="0123456789/-+. ", max_size=5),
)
SETS = st.one_of(
    st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.text(alphabet="an=/01", max_size=4),
)
NAMES = st.sampled_from(sorted({name for name, _ in DEFAULT_SELECTION}) + ["nope", ""])


@settings(max_examples=60, deadline=None)
@given(name=NAMES, sets=st.lists(SETS, max_size=2))
def test_catalog_show_keeps_the_exit_contract(name, sets):
    _run(["catalog", "show", name] + [x for s in sets for x in ("--set", s)])


@settings(max_examples=25, deadline=None)
@given(
    sets=st.lists(SETS, min_size=1, max_size=2),
    extra=st.sampled_from(([], ["--json"], ["--dim", "4"], ["--dim", "6"])),
)
def test_catalog_verify_keeps_the_exit_contract(sets, extra):
    _run(["catalog", "verify"] + extra + [x for s in sets for x in ("--set", s)])

