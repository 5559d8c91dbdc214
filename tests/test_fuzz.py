"""Property tests: malformed network and projector files end in a documented
error, never in an escaping exception.

Runs are derandomized and keep no example database, so every run draws
the same examples.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

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
