"""The per-job runner process: ``python -m repro.serve.runner JOBDIR``.

Reads the job directory's ``job.json`` (validated spec + shared cache
directory), compiles it to CLI argv and calls :func:`repro.cli.main` —
so a served job executes the *identical* code path as
``python -m repro flow ...`` and its QoR report is byte-identical
(modulo wall-clock fields) to a CLI run of the same spec.

The runner is also the crash-containment boundary: any failure —
spec rot, a flow exception, an injected ``REPRO_FAULTS`` abort — ends
this process with a non-zero exit code and, when possible, a
``job_error.json`` diagnosis, while the daemon that spawned it keeps
serving.  The flow's ``--monitor`` flag additionally leaves a final
``failed`` ``status.json`` behind for pollers.

The daemon does not start a fresh interpreter per job.  It keeps one
**zygote** (``python -m repro.serve.runner --zygote``, see
:func:`zygote`) that imports :data:`PRELOAD` once and ``os.fork()``\\ s
a runner per job, so a job pays neither interpreter start nor the
numpy / scipy / flow imports.  ``python -m repro.serve.runner JOBDIR``
stays the by-hand entry into the same :func:`main`.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import select
import signal
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.ioutil import atomic_write_bytes
from repro.serve.schemas import (
    ECO_EDITS_FILENAME,
    ERROR_FILENAME,
    JOB_FILENAME,
    SCHEMA,
    eco_to_argv,
    parse_job_spec,
    spec_to_argv,
)

#: What the zygote imports before its first fork: the modules a served
#: flow job and a served ECO job import beyond this module's own
#: (``sys.modules`` at the end of each, diffed against the zygote's).
#: ``tests/serve/test_zygote.py`` fails when a job imports anything
#: this list does not already bring in.
PRELOAD = (
    "repro.core.flow",
    "repro.designs.generator",
    "repro.eco",
    "repro.viz.svg",
)


def _write_error(job_dir: Path, message: str) -> None:
    try:
        atomic_write_bytes(
            job_dir / ERROR_FILENAME,
            json.dumps(
                {"schema": SCHEMA, "error": message}, sort_keys=True
            ).encode(),
            durable=False,
        )
    except OSError:  # pragma: no cover - diagnosis is best-effort
        pass


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.serve.runner JOBDIR", file=sys.stderr)
        return 2
    job_dir = Path(argv[0])
    try:
        payload = json.loads((job_dir / JOB_FILENAME).read_text())
        spec = parse_job_spec(payload["spec"])
        eco = payload.get("eco")
        if eco is not None:
            # ECO job: materialise the inline edit script, then run the
            # exact `repro eco` code path against the parent checkpoint.
            from repro.eco import SCHEMA as ECO_SCHEMA
            from repro.eco import parse_edits

            parse_edits(eco.get("edits", []))
            atomic_write_bytes(
                job_dir / ECO_EDITS_FILENAME,
                json.dumps(
                    {"schema": ECO_SCHEMA, "edits": eco.get("edits", [])},
                    sort_keys=True,
                    indent=2,
                ).encode(),
                durable=False,
            )
            flow_argv = eco_to_argv(
                eco, str(job_dir), payload.get("cache_dir")
            )
        else:
            flow_argv = spec_to_argv(
                spec, str(job_dir), payload.get("cache_dir")
            )
    except Exception as exc:
        _write_error(job_dir, f"bad job spec: {exc!r}")
        return 2

    from repro.cli import main as cli_main

    try:
        return int(cli_main(flow_argv) or 0)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        if code != 0:
            _write_error(job_dir, f"flow exited: {exc.code!r}")
        return code
    except BaseException as exc:
        _write_error(job_dir, repr(exc))
        return 1


# ----------------------------------------------------------------------
# The zygote
# ----------------------------------------------------------------------
def _reply(fd: int, message: Dict[str, Any]) -> None:
    try:
        os.write(fd, (json.dumps(message) + "\n").encode())
    except OSError:
        pass  # the daemon is gone; stdin EOF ends the loop


def _fork_runner(request: Dict[str, Any], private_fds: Tuple[int, ...]) -> int:
    """Fork one runner for ``request``; returns its pid (in the zygote).

    The child sets itself up as ``python -m repro.serve.runner DIR``
    would run: the job's environment and working directory, output to
    ``runner.log``.  It then runs :func:`main` and exits; it never
    returns.
    """
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for fd in private_fds:
            os.close(fd)
        log = os.open(
            request["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        os.environ.clear()
        os.environ.update(request["env"])
        os.chdir(request["dir"])
        sys.argv[1:] = [request["dir"]]
        code = main([request["dir"]])
    except BaseException:
        # Never re-raised: the child must not unwind into the zygote's
        # loop.  The traceback goes to runner.log (or, before the log
        # was opened, the daemon's stderr).
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:
                pass
        os._exit(code)


def zygote() -> int:
    """Fork one runner per request line until stdin closes.

    Protocol (JSON lines): the daemon writes ``{job, dir, env, log}``
    on stdin; the zygote answers ``{job, pid}`` as soon as it has
    forked, and ``{job, exit}`` once it has reaped that runner (a
    negative exit is the killing signal, as in ``Popen.returncode``),
    or ``{job, error}`` if it could not fork.  After stdin closes it
    reaps every runner still running and exits, so their resource
    usage reaches the daemon's ``RUSAGE_CHILDREN``.
    """
    # The protocol moves off fds 0/1: a stray print in this process
    # goes to the daemon's stderr, and a runner starts from /dev/null.
    proto_in, proto_out = os.dup(0), os.dup(1)
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    os.dup2(2, 1)
    # ^C on the daemon's terminal reaches the whole process group; the
    # daemon drains, and this process must outlive that drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    for name in PRELOAD:
        importlib.import_module(name)
    # Every job's stage keys hash the package source; hash it once here
    # and every runner inherits it.
    from repro.cache import source_digest

    source_digest()
    # Everything imported so far is shared with every runner: keep the
    # runners' collector off those pages.
    gc.freeze()

    wake_in, wake_out = os.pipe()
    os.set_blocking(wake_in, False)
    os.set_blocking(wake_out, False)
    signal.set_wakeup_fd(wake_out)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    private_fds = (proto_in, proto_out, wake_in, wake_out)

    running: Dict[int, str] = {}
    pending = b""
    reading = True
    while reading or running:
        ready, _, _ = select.select(
            [proto_in, wake_in] if reading else [wake_in], [], []
        )
        if wake_in in ready:
            try:
                while os.read(wake_in, 512):
                    pass
            except BlockingIOError:
                pass
        while running:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if not pid:
                break
            _reply(
                proto_out,
                {
                    "job": running.pop(pid),
                    "exit": os.waitstatus_to_exitcode(status),
                },
            )
        if proto_in not in ready:
            continue
        chunk = os.read(proto_in, 65536)
        if not chunk:
            reading = False
            continue
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            request = json.loads(line)
            try:
                pid = _fork_runner(request, private_fds)
            except OSError as exc:
                error = f"cannot fork a runner: {exc}"
                _reply(proto_out, {"job": request["job"], "error": error})
                continue
            running[pid] = request["job"]
            _reply(proto_out, {"job": request["job"], "pid": pid})
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(zygote() if sys.argv[1:] == ["--zygote"] else main())
