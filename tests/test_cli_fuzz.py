"""Property test: any edit of a valid document ends in a documented exit code.

Each example starts from configs/toy.yaml, drops one leaf, replaces one or
two leaves with a value from a fixed pool of extreme and wrong-typed values,
or adds a key that YAML reads as no string (1, null, true) to a section or
the top level, and runs one verb with small arguments. cli.main must return 0, 2, 3, 4 or 5
and raise nothing; a non-zero return prints an "error: " line. No pool value
is a valid large size, so no example builds a large graph.
"""

import contextlib
import io
import os
from dataclasses import fields

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from afpipe.cli import main
from afpipe.config import ClusterConfig, Experiment, ModelConfig, Workload

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "configs", "toy.yaml"), encoding="utf-8") as fh:
    TOY = yaml.safe_load(fh)

# Every schema field, so that fields toy.yaml leaves at their default are edited too.
SECTIONS = {"model": ModelConfig, "workload": Workload, "cluster": ClusterConfig}
LEAVES = [(section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)]
LEAVES += [("schedule", f.name) for f in fields(Experiment) if f.name not in SECTIONS]
POOL = [
    0, -1, 1, 2, 1.5, "x", True, None, float("inf"), float("-inf"), float("nan"),
    1e-300, 1e-289, 1e300, 2**53 + 1, 10**20, 10**160, 10**320, 10**400,
]
NON_STRING_KEYS = [1, 0, None, True, 1.5]
AXIS_VALUES = [
    "0", "-1", "1", "2", "3", "1.5", "0.5", "x", "true", "nan", "inf", "-inf",
    "1e-300", str(2**53 + 1), str(10**20), str(10**400), ",",
]

edits = st.one_of(
    st.tuples(st.sampled_from(LEAVES)).map(lambda leaf: [(leaf[0], None, True)]),
    st.lists(
        st.tuples(st.sampled_from(LEAVES), st.sampled_from(POOL), st.just(False)),
        min_size=1, max_size=2,
    ),
    st.tuples(st.sampled_from([None, *TOY]), st.sampled_from(NON_STRING_KEYS))
    .map(lambda leaf: [(leaf, "x", False)]),  # section None: the top level
)
verbs = st.one_of(
    st.just(["simulate"]),
    st.just(["compare"]),
    st.just(["allocate", "--trials", "2"]),
    st.builds(
        lambda axis, value: ["sweep", "--axis", axis, f"--values={value}"],
        st.sampled_from(["seq_len", "topk", "ep_size", "virtual_stages", "attn_gpu_share"]),
        st.sampled_from(AXIS_VALUES),
    ),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edits=edits, argv=verbs)
def test_edited_document_ends_in_a_documented_exit_code(tmp_path_factory, edits, argv):
    doc = {section: dict(body) for section, body in TOY.items()}
    for (section, key), value, drop in edits:
        body = doc if section is None else doc[section]
        if drop:
            body.pop(key, None)
        else:
            body[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(path)])
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert err.getvalue().startswith("error: ")
