"""The process entry point: ``python -m arctanderiv`` and the ``arctanderiv``
console script both call :func:`run`.

``run`` exits with the code of ``cli.main``.  On every way out (a return, the
``SystemExit`` of a usage error or ``--help``, an uncaught exception) it first
moves every object the collector tracks into its permanent generation
(``gc.freeze``), so the interpreter's shutdown collections do not walk them:
a process about to exit gains nothing from that walk.  Finalization still
flushes stdio and reports a failed flush.  ``cli.main`` stays the in-process
API and leaves the collector alone.
"""

import gc
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
