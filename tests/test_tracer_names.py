"""The benchmark's span tracer patches names of the package's modules by
reading ``owner.__dict__[attr]``; each must still be defined there, or a
traced run dies with a KeyError."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_patched_name_is_defined_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.PATCHES if attr not in owner.__dict__]
    assert not missing
