"""Small process that spawns benchmark commands and reports their cost.

Linux folds the memory a child inherits from the process that spawned it
into the child's peak RSS (the old address space's high-water mark is
kept when the child execs).  A runner that has read large outputs would
therefore inflate every later command's ``peak_rss_mib``.  bench/run.py
starts this launcher before it loads anything, and all commands are
spawned from here, so the peak RSS reported belongs to the command.

Protocol, one JSON object per line in each direction:

  request  {"argv": [...], "env": {...}, "stdout": path, "stderr": path,
            "timeout_s": float}
  reply    {"rc": int, "wall_s": float, "cpu_s": float,
            "maxrss_kib": int, "timed_out": bool}

``cpu_s`` and ``maxrss_kib`` come from ``wait4`` and so cover the command
and every descendant it reaped (the fork workers of a parallel build);
``maxrss_kib`` is the highest peak of any process in that tree.  A
command that outlives ``timeout_s`` has its process group killed.
"""

import json
import os
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _run(req: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], _WRITE, 0o644),
    ]
    timed_out = False

    def on_alarm(signum, frame):
        nonlocal timed_out
        timed_out = True
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                         file_actions=actions, setpgroup=0)
    signal.setitimer(signal.ITIMER_REAL, req["timeout_s"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    try:
        os.killpg(pid, signal.SIGKILL)      # strays left by the command
    except ProcessLookupError:
        pass
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss, "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        reply = _run(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
