#!/usr/bin/env python3
"""Run a command and report its wall time and peak resident set size.

Usage:
    python3 tools/peak_rss.py [--max-mb N] [--quiet] -- COMMAND [ARGS...]

Prints `peak_rss_mb=<MB> wall_s=<s> exit=<code>` on stderr once the
command finishes. Exits with the command's status, or 1 when the
command succeeded but its peak RSS passed --max-mb. --quiet drops the
command's stdout. Peak RSS is the largest child's ru_maxrss
(getrusage(RUSAGE_CHILDREN)), so it needs no /usr/bin/time.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(
        description='run a command and report its peak RSS')
    parser.add_argument('--max-mb', type=float, default=None,
                        help='fail when the peak RSS passes this many MB')
    parser.add_argument('--quiet', action='store_true',
                        help="discard the command's stdout")
    parser.add_argument('command', nargs=argparse.REMAINDER,
                        help='the command to run, after --')
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ['--'] else args.command
    if not command:
        parser.error('no command given')

    start = time.monotonic()
    status = subprocess.call(
        command, stdout=subprocess.DEVNULL if args.quiet else None)
    wall = time.monotonic() - start
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print('peak_rss_mb=%.1f wall_s=%.2f exit=%d' % (peak_mb, wall, status),
          file=sys.stderr)
    if status != 0:
        return status
    if args.max_mb is not None and peak_mb > args.max_mb:
        print('peak RSS %.1f MB passes the %.0f MB ceiling'
              % (peak_mb, args.max_mb), file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
