"""Runs one child process at a time and measures it from the outside.

Wall time comes from the steady clock around spawn and reap; CPU and peak
RSS come from the child's wait4 rusage, which covers the child and every
descendant it reaped (fleet workers included).  Never the calling thread's
CPU time: a parent that waits on threads or children burns almost none.
"""

import dataclasses
import os
import signal
import threading
import time


@dataclasses.dataclass
class Child:
    argv: list
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run(argv, scratch_dir, timeout_s=90.0):
    """Spawns argv (argv[0] a path), reaps it with wait4 and returns a Child.

    Output goes to files in scratch_dir rather than pipes, so the child
    never blocks on a full pipe while this process sits in wait4.  A child
    still running after timeout_s is killed; it is reaped either way, so
    no process outlives the call.
    """
    out_path = os.path.join(scratch_dir, "child.out")
    err_path = os.path.join(scratch_dir, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    return Child(argv, os.waitstatus_to_exitcode(status), stdout, stderr,
                 wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)
