"""Nesting semantics of the V-P&R item SIGALRM guard.

``_item_alarm`` shares one process-wide ``ITIMER_REAL`` with whatever
armed a timer before it (an outer ``_item_alarm``, a serving harness's
own watchdog...).  Exiting the context must re-arm the outer timer
with the elapsed time deducted — the old code zeroed the itimer
unconditionally, silently cancelling any pending outer timeout.
"""

import signal
import time

import pytest

from repro.core.sweep import _item_alarm


@pytest.fixture(autouse=True)
def _clean_itimer():
    """Leave no timer or handler armed behind a failing test."""
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_inner_timeout_still_fires():
    with pytest.raises(TimeoutError, match="item_timeout"):
        with _item_alarm(0.05):
            time.sleep(5.0)


def test_zero_or_none_timeout_is_a_no_op():
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with _item_alarm(None):
            pass
        with _item_alarm(0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def test_outer_itimer_survives_inner_alarm():
    """Regression: a pre-armed timer must still be pending afterwards."""
    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *_: fired.append(True))
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with _item_alarm(5.0):
            pass
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 30.0
        assert interval == 0.0
        assert not fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_outer_itimer_remaining_deducts_elapsed_time():
    previous = signal.signal(signal.SIGALRM, lambda *_: None)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with _item_alarm(10.0):
            time.sleep(0.2)
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert remaining <= 30.0 - 0.2 + 0.05  # slack for timer rounding
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_outer_interval_is_restored():
    previous = signal.signal(signal.SIGALRM, lambda *_: None)
    signal.setitimer(signal.ITIMER_REAL, 30.0, 7.0)
    try:
        with _item_alarm(5.0):
            pass
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        assert remaining > 0.0
        assert interval == pytest.approx(7.0, abs=0.01)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_overdue_outer_timer_fires_after_restore():
    """An outer deadline passing *inside* the guard fires right after
    the outer handler is back (instead of being dropped forever)."""
    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *_: fired.append(True))
    signal.setitimer(signal.ITIMER_REAL, 0.01)
    try:
        with _item_alarm(60.0):
            time.sleep(0.1)  # outer deadline expires while masked
        deadline = time.monotonic() + 2.0
        while not fired and time.monotonic() < deadline:
            time.sleep(0.005)
        assert fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_nested_guards_restore_each_level():
    with _item_alarm(30.0):
        with _item_alarm(10.0):
            pass
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 30.0
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
