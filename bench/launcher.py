"""Runs commands for ``common.Launcher`` and reports each one's own peak RSS.

Reads one JSON request per line on stdin (``argv``, ``cwd``, ``stdout``,
``stderr``, ``timeout``) and answers each with one JSON line: wall seconds
from spawn to exit, exit code and peak RSS in MB. The command's output goes
to the two files named in the request. Stdin closing ends the loop; SIGTERM
kills the running command, waits for it and ends the helper.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    running: list[subprocess.Popen] = []

    def terminate(*_) -> None:
        for proc in running:
            proc.kill()
            os.waitpid(proc.pid, 0)
        raise SystemExit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, terminate)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            running.append(proc)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            running.clear()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Linux reports ru_maxrss in KiB
        reply = {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
