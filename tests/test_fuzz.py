"""Property tests: malformed network and projector files, state literals and
argument vectors end in a documented error, never in an escaping exception.

Runs are derandomized and keep no example database, so every run draws
the same examples.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import re

from hypothesis import given, settings, strategies as st

from prepost.cli import main
from prepost.network import PRESET_DOUBLE_MZ, NetworkConfigError, build_network

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


PRESET_NODES = list(_nodes(PRESET_DOUBLE_MZ))


@FUZZ
@given(st.sampled_from(PRESET_NODES), JSON)
def test_network_with_one_node_replaced_raises_only_config_errors(path, value):
    try:
        build_network(json.dumps(_replaced(PRESET_DOUBLE_MZ, path, value)))
    except NetworkConfigError:
        pass


MODES = st.sampled_from(["c", "d", "e", "zz", ""])
NUMBER = st.integers() | st.floats()
OUTCOME = st.fixed_dictionaries(
    {},
    optional={
        "label": MODES | JSON,
        "modes": st.lists(MODES, max_size=3) | JSON,
        "ket": st.dictionaries(MODES, st.lists(NUMBER, min_size=2, max_size=2) | JSON,
                               max_size=3) | JSON,
    },
)
PROJECTOR_FILES = st.fixed_dictionaries({"outcomes": st.lists(OUTCOME, max_size=3)}) | JSON


def test_abl_with_any_projector_file_exits_0_3_or_4(tmp_path):
    path = tmp_path / "basis.json"

    @FUZZ
    @given(PROJECTOR_FILES)
    def check(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "1",
                         "--basis", str(path)])
        assert code in (0, 3, 4)
        assert (code == 0) == bool(out.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


# Numbers as a user types them: plain values, or non-finite, overflowing or
# huge integers (finite as an int, infinite as a float).
NUMBERS = st.sampled_from(["0", "-0", "1", "-1", "0.5", "2", "0.7071067811865476",
                           "1.0000000005"]) | st.sampled_from([
    "1e-300", "1e200", "1e308", "-1e308", "nan", "-nan", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "1" + "0" * 400, "12345678901234567890", "x"])
SAMPLES = st.sampled_from(["-1", "0", "1", "2", "17", "500", "nan", "1e400"])
INTEGERS = st.sampled_from(["0", "1", "3", "6", "7", "-1", "1" + "0" * 400]) | NUMBERS
EIGENVALUES = st.sampled_from(["1,2", "0.5,-0.5"]) | st.builds("{},{}".format, NUMBERS, NUMBERS)


def literals(first, second):
    """Valid literals on two modes, or up to two arbitrary terms that may use
    an unknown mode."""
    valid = st.sampled_from([f"{first}:1,0", f"{second}:0,-1", f"{first}:3,0;{second}:0,4",
                             f"{first}:1.0000000005,0"])
    term = st.builds("{}:{},{}".format, st.sampled_from([first, second, "zz"]), NUMBERS, NUMBERS)
    return valid | st.lists(term, max_size=2).map(";".join)


@st.composite
def requests(draw):
    """An argument vector for one subcommand other than ``demo``."""
    command = draw(st.sampled_from(["evolve", "abl", "bohm", "measure"]))

    def option(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    if command == "evolve":
        argv = ["--preset", *option("--pre", literals("a", "b")),
                *option("--post", literals("g", "h"))]
    elif command == "abl":
        argv = ["--preset", f"--pre={draw(literals('a', 'b'))}",
                f"--post={draw(literals('g', 'h'))}",
                *option("--cut", INTEGERS), *(["--certainty"] if draw(st.booleans()) else [])]
    elif command == "bohm":
        argv = ["--preset", *option("--direction", st.sampled_from(["forward", "reversed"])),
                *option("--pre", literals("a", "b")), *option("--post", literals("g", "h")),
                *option("--quantile", NUMBERS), *option("--samples", SAMPLES),
                *option("--seed", INTEGERS), *option("--start-mode", st.sampled_from("abghz")),
                *option("--reflection-rule", st.sampled_from(["reverse", "preserve"]))]
    else:
        argv = [*option("--direction", st.sampled_from(["forward", "backward"])),
                f"--system={draw(literals('u', 'v'))}", "--eigenbasis=u,v",
                f"--eigenvalues={draw(EIGENVALUES)}", *option("--pointer", NUMBERS),
                *option("--samples", SAMPLES), *option("--seed", INTEGERS)]
    return [command, *argv, *option("--format", st.sampled_from(["text", "json"]))]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(FUZZ, max_examples=400)
@given(requests())
def test_any_request_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5, 6)
    assert (code == 0) == bool(out.getvalue())
    assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE)
    if code == 0 and "--format=json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
