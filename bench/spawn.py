"""Starts the benchmark's child processes and reports how each one ran.

A child's max RSS from `wait4` also counts the peak RSS of the process
that started it (Linux carries the old address space's high-water mark
across exec), so children are started from this small interpreter rather
than from `run.py`, which holds numpy and the checker's data.

Reads one JSON request per line on stdin, {"argv": [...], "stderr": path},
runs the argv with stdin and stdout on /dev/null and stderr to the file,
and answers one JSON line: {"seconds", "code", "maxrss_mb"}, where seconds
runs from spawn to exit. Children inherit this process's environment and
working directory.
"""
import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ]
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            seconds = time.perf_counter() - start
        finally:
            os.close(err)
        reply = {"seconds": seconds, "code": os.waitstatus_to_exitcode(status), "maxrss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
