"""Calls run in forked child processes: the density.csv writer
(``cli._SliceWriter``) and the Monte Carlo path chunks (``run_split``).
Nothing forks unless ``ENABLED``."""

import os
import sys
from contextlib import ExitStack

# the writer needs os.fork and an os.sendfile that writes to a regular file;
# Linux has both (macOS and the BSDs send only to sockets)
ENABLED = sys.platform == "linux"


class Child:
    """``work(*args)``, which returns a str or None, in a forked process.

    The child runs it inside ``try/finally: os._exit``, so it never returns
    into the caller, and reports the string, or its error, over a pipe.
    ``result()`` returns the string, or raises OSError with the child's
    message or the signal that killed it.  Leaving the ``with`` block before
    ``result()`` kills the child; either way it is reaped.
    """

    def __init__(self, name, work, *args):
        self.name = name
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    try:
                        message, code = work(*args) or "", 0
                    except BaseException as exc:
                        message = f"{type(exc).__name__}: {exc}"
                    pipe.write(message.encode())
            finally:
                os._exit(code)
        os.close(write_end)
        self._report = read_end

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:  # not reaped: the block raised
            import signal  # only error paths need it

            os.kill(self.pid, signal.SIGKILL)
            os.wait4(self.pid, 0)
        if self._report is not None:
            os.close(self._report)

    def result(self) -> str:
        with open(self._report, "rb") as pipe:
            self._report = None
            message = pipe.read().decode()
        _, status, _ = os.wait4(self.pid, 0)
        self.pid = None
        if status:
            if os.WIFSIGNALED(status):
                message = f"killed by signal {os.WTERMSIG(status)}"
            raise OSError(f"{self.name} failed: {message}")
        return message


def run_split(name, work, jobs):
    """``work(*job)`` for each of ``jobs``: the first in this process while
    the others run in forked children, or all here in turn unless ENABLED."""
    if not ENABLED:
        for job in jobs:
            work(*job)
        return
    with ExitStack() as children:
        started = [children.enter_context(Child(name, work, *job)) for job in jobs[1:]]
        work(*jobs[0])
        for child in started:
            child.result()
