"""A per-test time limit from the standard library.

The CLI tests run ``galaxyck.cli.main`` inside the pytest process, so a hang
there would hold the whole session.  Where ``SIGALRM`` exists, each test
call gets ``TIME_LIMIT_S`` seconds and then fails, naming itself.
"""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``: neither ``cli.main``'s crash handler nor
    hypothesis (which would replay the example while shrinking) catches it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
