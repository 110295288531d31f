"""The benchmark's tracer patches afpipe functions by module attribute.

A rename or a dropped import breaks a traced benchmark run with an
AttributeError; this test makes the same breakage fail here instead.
"""

import importlib
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_patches():
    # Executed from source, so nothing is written under bench/.
    path = os.path.join(REPO, "bench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        namespace = {"__name__": "afpipe_bench_tracing"}
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace["_PATCHES"]


HOOKS = [(module, attr) for module, attr, _, _ in _tracer_patches()]
HOOKS.append(("allocator", "af_iteration_profile"))


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"afpipe.{module}"), attr, None))
