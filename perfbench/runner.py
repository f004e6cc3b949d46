"""Cold execution of one operation in a forked child.

The benchmark process imports ``extremal_means.cli`` once and then forks one
child per operation, so every operation starts from the state of a CLI
process that has just finished importing: no ``lru_cache`` entry and no rho
table survives from an earlier operation, while interpreter start and
package import are paid once (and reported separately as ``setup_s``).

The child sends its result back over a pipe as one pickle and leaves with
``os._exit``; the parent reads the pipe to the end, then reaps the child
with ``wait4`` for its exit status and peak resident set size.  Only one
child exists at a time.

Fork rather than spawn: a spawned child would import the package again,
the very cost that ``setup_s`` reports on its own.  The parent starts no
threads of its own; numpy's BLAS pool is rebuilt in the child by the
library's fork handlers.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass

# an operation that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 60


@dataclass
class ChildResult:
    value: object  # what the function returned, None on error
    error: str | None  # traceback text, or a description of how the child died
    seconds: float  # fork to reap, as the parent sees it
    maxrss_kb: int
    spans: list | None


def fork_call(fn, args: tuple = (), trace: bool = False) -> ChildResult:
    """Run fn(*args) in a forked child; with `trace`, record layer spans there."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        signal.alarm(CHILD_TIMEOUT_S)
        payload = {"value": None, "error": None, "spans": None}
        try:
            recorder = None
            if trace:
                import spans

                recorder = spans.Recorder()
                spans.install(recorder)
            payload["value"] = fn(*args)
            if recorder is not None:
                payload["spans"] = recorder.spans
        except BaseException:
            payload["error"] = traceback.format_exc()
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)

    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    maxrss_kb = usage.ru_maxrss
    if os.WIFSIGNALED(status) or os.WEXITSTATUS(status) != 0 or not data:
        how = (
            f"killed by signal {os.WTERMSIG(status)}"
            if os.WIFSIGNALED(status)
            else f"exit status {os.WEXITSTATUS(status)}"
        )
        return ChildResult(None, f"child died without a result ({how})", seconds, maxrss_kb, None)
    payload = pickle.loads(data)  # bytes written by our own child
    return ChildResult(payload["value"], payload["error"], seconds, maxrss_kb, payload["spans"])


def execute(op) -> tuple[bytes, str, int]:
    """Body of one operation inside the child: (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        if op.kind == "cli":
            from extremal_means import cli

            code = cli.main(list(op.argv))
        else:
            import workloads

            out.write(workloads.library_call(op))
            code = 0
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return out.getvalue().encode("utf-8"), err.getvalue(), int(code)
