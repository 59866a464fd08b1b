import multiprocessing

import pytest

from eegx import signal_io as sio


@pytest.fixture(autouse=True)
def no_live_child():
    """Fail any test that leaves a child process running, or a pool's
    batches registered for its workers, so every test checks that the
    worker pool it used was shut down and let go of its work."""
    yield
    assert multiprocessing.active_children() == []
    assert sio._FORKED == {}
