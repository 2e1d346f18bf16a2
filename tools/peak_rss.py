#!/usr/bin/env python3
"""Run one command and print its peak resident set size.

Usage:  python3 tools/peak_rss.py COMMAND [ARG ...]

The command runs in a child forked from this small launcher and replaced by
``exec``; the launcher waits for it with ``os.wait4`` and prints one line,
``peak_rss_mb <MB>``, the child's own ``ru_maxrss``, after the command's own
output. A child started from a large process (with ``subprocess`` from a
test runner, say) would report that process's high-water mark instead when
it is the larger, since Linux carries it over ``exec``. The launcher exits
with the command's exit status, or 128 + the signal that ended it.
"""

import os
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        except OSError as err:
            print(f"{argv[0]}: {err}", file=sys.stderr)
        os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.2f}")  # ru_maxrss is in KiB on Linux
    return os.waitstatus_to_exitcode(status) if os.WIFEXITED(status) else 128 + os.WTERMSIG(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
