"""The warm-heap malloc policy (:mod:`repro._heap`).

Importing ``repro`` makes a freed multi-MB NumPy block go back to the
heap instead of the kernel, so the next one faults no pages in; a
malloc policy the user chose through glibc's variables is left alone;
and where ``mallopt`` is missing or refuses a value, the import is a
silent no-op.
"""

import ctypes
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import _heap

SRC = Path(__file__).resolve().parents[1] / "src"

#: Faults per cycle of three 4 MiB blocks, allocated, written and freed.
CYCLE_FAULTS = """
import resource, sys
import numpy as np
if sys.argv[1] == "repro":
    import repro

def cycle():
    blocks = [np.ones(1 << 19) for _ in range(3)]
    del blocks

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


glibc = pytest.mark.skipif(not _on_glibc(), reason="the policy is glibc's")


def faults_per_cycle(mode: str, **env: str) -> float:
    child_env = {
        key: value
        for key, value in os.environ.items()
        if key not in _heap.USER_POLICY_VARS and key != "GLIBC_TUNABLES"
    }
    child_env["PYTHONPATH"] = str(SRC)
    child_env.update(env)
    out = subprocess.run(
        [sys.executable, "-c", CYCLE_FAULTS, mode],
        env=child_env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout)


@glibc
def test_import_keeps_freed_blocks_resident():
    assert faults_per_cycle("repro") < 10


@glibc
def test_without_the_policy_every_cycle_faults():
    assert faults_per_cycle("numpy") > 100


@glibc
@pytest.mark.parametrize(
    "env",
    [
        {"MALLOC_TRIM_THRESHOLD_": "0"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"},
    ],
)
def test_a_user_policy_stands(env):
    assert faults_per_cycle("repro", **env) > 100


class _Libc:
    """A C library whose ``mallopt`` gives the listed answers in turn."""

    def __init__(self, answers):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answers.pop(0)

        self.mallopt = mallopt


def _clear_user_policy(monkeypatch):
    for name in _heap.USER_POLICY_VARS + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)


def test_missing_mallopt_makes_import_a_silent_noop(monkeypatch, capsys):
    _clear_user_policy(monkeypatch)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _heap.keep_warm() is False
        importlib.reload(repro)
    assert capsys.readouterr() == ("", "")


@glibc
def test_refused_trim_puts_the_mmap_threshold_back(monkeypatch):
    _clear_user_policy(monkeypatch)
    libc = _Libc([1, 0, 1])
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc)
    assert _heap.keep_warm() is False
    assert libc.calls == [
        (_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD),
        (_heap.M_TRIM_THRESHOLD, _heap.TRIM_THRESHOLD),
        (_heap.M_MMAP_THRESHOLD, _heap.DEFAULT_MMAP_THRESHOLD),
    ]


@glibc
def test_refused_mmap_threshold_sets_nothing_else(monkeypatch):
    _clear_user_policy(monkeypatch)
    libc = _Libc([0])
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc)
    assert _heap.keep_warm() is False
    assert libc.calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD)]
