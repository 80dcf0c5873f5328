#!/usr/bin/env python3
"""Run a command and write its peak resident memory to a file when it ends.

    python3 bench/peakrss.py RESULT_FILE PROGRAM [ARG ...]

``PROGRAM`` must be a path (no ``PATH`` lookup).  ``RESULT_FILE`` receives
``ru_maxrss`` in KiB of the command and every descendant it waited for (for
``repro-sec serve``: the daemon and its forked job workers).  SIGTERM and
SIGINT are passed on to the command; the exit code is the command's.

The daemon workload starts its daemons through this small process rather
than straight from the measuring process, because ``ru_maxrss`` of a
process that was forked and then exec'ed counts the memory of the process
it was forked from.  Started from the measuring process, the daemon would
report the measuring process's size, not its own.
"""

import os
import signal
import sys


def main(argv):
    result_file, command = argv[1], argv[2:]
    pid = os.posix_spawn(command[0], command, os.environ)

    def forward(signum, frame):
        os.kill(pid, signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    _, status, usage = os.wait4(pid, 0)
    with open(result_file, "w") as fh:
        fh.write("{}\n".format(usage.ru_maxrss))
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
