import os

import pytest

import lexineq


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let ``python -m lexineq`` subprocesses import the package under test,
    also when it is found through the ``pythonpath`` ini setting only."""
    src_dir = os.path.dirname(os.path.dirname(lexineq.__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src_dir, prepend=os.pathsep)
        yield
