"""Helper process that runs the timed children of run.py.

A child's `ru_maxrss` also counts the resident set of the process that
spawned it, because exec keeps the high-water mark of the image it replaces.
Spawning every timed child from this helper, a bare interpreter started
with `-S` that imports nothing else, keeps that floor at about 10 MB, below
any `entres` process, so the rusage that wait4 returns measures the child
alone.

The helper reads one JSON job per line on stdin (argv, env, stdout and
stderr paths, timeout), spawns the job, waits for it with wait4, kills it
with SIGKILL once the timeout passes, and writes one JSON line back: exit
code, wall seconds from spawn to reaped, peak RSS in KiB, and whether it was
killed. It exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def serve() -> None:
    state = {"pid": None, "killed": False}

    def on_alarm(signum, frame) -> None:
        if state["pid"] is not None:
            state["killed"] = True
            try:
                os.kill(state["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        job = json.loads(line)
        state["killed"] = False
        wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        start = time.perf_counter()
        pid = os.posix_spawn(job["argv"][0], job["argv"], job["env"], file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, job["stdout"], wr, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, job["stderr"], wr, 0o644),
        ])
        state["pid"] = pid
        signal.setitimer(signal.ITIMER_REAL, job["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        state["pid"] = None
        wall = time.perf_counter() - start
        print(json.dumps({
            "code": os.waitstatus_to_exitcode(status),
            "wall": wall,
            "maxrss_kib": usage.ru_maxrss,
            "killed": state["killed"],
        }), flush=True)


if __name__ == "__main__":
    serve()
