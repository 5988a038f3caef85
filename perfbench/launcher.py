"""Spawn one child per request and report its exit status, wall time and
peak memory.

Linux charges a child's ``ru_maxrss`` with the peak resident set of the
process it was spawned from, so children spawned straight from run.py
would report run.py's memory, not their own.  This process stays small
and does the spawning instead.  Run it with ``python3 -I -S``.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path}``; one JSON reply per line on stdout, ``{"status": int,
"seconds": float, "maxrss_kb": int}``.  The child inherits this process's
environment.  ``status`` is the exit code, or minus the signal number.
"""

import json
import os
import signal
import sys
import time

# A child still running after this many seconds is killed and reported as
# signalled, so one hung operation cannot hang the benchmark.
CHILD_TIMEOUT_S = 150

WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended as the alarm fired
        pass


def spawn(argv, stdout_path, stderr_path):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, WRITE_FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, WRITE_FLAGS, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: kill(pid))
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    seconds = time.perf_counter() - start
    return {
        "status": os.waitstatus_to_exitcode(status),
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    # Children inherit this affinity.  On a shared virtual machine the cores
    # can slow down independently of each other, so operations and the
    # calibration runs that scale them must share one core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
