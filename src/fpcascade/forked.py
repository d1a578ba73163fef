"""The Monte Carlo path chunks (``run_split``) run in forked child processes
while the calling process formats ``density.csv``.  Nothing forks unless
``ENABLED``."""

import os
import sys
from contextlib import ExitStack

# a fork without exec is unsafe on macOS (its system frameworks may abort in
# the child) and Windows has no os.fork
ENABLED = sys.platform == "linux"


class Child:
    """``work(*args)`` in a forked process.

    The child runs it inside ``try/finally: os._exit``, so it never returns
    into the caller, and reports its error, if it raises one, over a pipe.
    ``result()`` returns None, or raises OSError with the child's message or
    the signal that killed it.  Leaving the ``with`` block before
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
                        work(*args)
                        code = 0
                    except BaseException as exc:
                        pipe.write(f"{type(exc).__name__}: {exc}".encode())
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

    def result(self):
        with open(self._report, "rb") as pipe:
            self._report = None
            message = pipe.read().decode()
        _, status, _ = os.wait4(self.pid, 0)
        self.pid = None
        if status:
            if os.WIFSIGNALED(status):
                message = f"killed by signal {os.WTERMSIG(status)}"
            raise OSError(f"{self.name} failed: {message}")


def run_split(name, work, jobs, meanwhile=None):
    """``work(*job)`` for each of ``jobs``, each in a forked child, while
    ``meanwhile()`` (if given) runs in this process, which then waits for the
    children; an error here kills them all.  Unless ENABLED, the jobs run
    here in turn, and then ``meanwhile()``."""
    if not ENABLED:
        for job in jobs:
            work(*job)
        if meanwhile is not None:
            meanwhile()
        return
    with ExitStack() as children:
        started = [children.enter_context(Child(name, work, *job)) for job in jobs]
        if meanwhile is not None:
            meanwhile()
        for child in started:
            child.result()
