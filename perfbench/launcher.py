"""Spawns the benchmark's timed children and reports how each ended.

A child's `ru_maxrss` also counts the memory of the process it was spawned
from (Linux records the spawning address space's high-water mark at exec). The
benchmark process holds the package, the expectations and the trace dumps, so
it hands spawning to this small process, whose few MiB sit below any child's.

Protocol, one JSON object per line: requests on stdin
`{"argv": [...], "env": {...}, "out": path, "err": path}`, replies on stdout
`{"wall_s": ..., "rc": ..., "maxrss_kib": ...}`. It exits at end of input,
and on SIGTERM it kills and reaps the child it is waiting on.
"""

import json
import os
import select
import signal
import sys
import time

CHILD_TIMEOUT_S = 150.0


def run(argv, env, out, err):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            finished, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        raise
    wall = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status) if finished else -signal.SIGKILL
    return {"wall_s": wall, "rc": rc, "maxrss_kib": usage.ru_maxrss}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["env"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
