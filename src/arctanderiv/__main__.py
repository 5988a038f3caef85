"""The process entry point: ``python -m arctanderiv`` and the ``arctanderiv``
console script both call :func:`run`.

``run`` exits with the code of ``cli.main``.  On every way out (a return, the
``SystemExit`` of a usage error or ``--help``, an uncaught exception) it first
flushes stdout once more.  ``cli.main`` has already flushed and reported a
write that failed, but the unwritten bytes stay in stdout's buffer; when the
flush fails again, fd 1 is pointed at ``os.devnull``, so finalization has
nothing left to fail on and the interpreter's exit code 120 never replaces
``main``'s.  Then it moves every object the collector tracks into its
permanent generation (``gc.freeze``), so the interpreter's shutdown
collections do not walk them: a process about to exit gains nothing from
that walk.  ``cli.main`` stays the in-process API: it touches no file
descriptor and leaves the collector alone.
"""

import gc
import os
import sys

from .cli import main


def _settle_stdout() -> None:
    if sys.stdout is None:  # started with fd 1 closed
        return
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)


def run() -> None:
    try:
        sys.exit(main())
    finally:
        _settle_stdout()
        gc.freeze()


if __name__ == "__main__":
    run()
