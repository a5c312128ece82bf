import os
from pathlib import Path

import pytest

import lsrsim


@pytest.fixture
def child_env():
    """Environment for a child ``python -m lsrsim.cli``: its ``PYTHONPATH``
    starts with the directory that holds the ``lsrsim`` imported here, so the
    child runs the same package without an install."""
    src = str(Path(lsrsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
