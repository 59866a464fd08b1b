import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child():
    """Fail any test that leaves a child process running, so every test
    checks that the worker pool it used was shut down."""
    yield
    assert multiprocessing.active_children() == []
