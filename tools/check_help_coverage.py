#!/usr/bin/env python3
"""Help-coverage checker: every flag a driver declares must be listed in
its --help output exactly once, and vice versa.

Usage:
    check_help_coverage.py <driver-binary> <driver-source.cc> <cli.cc>

The declared set is read from the option-table entries: the driver's
own (`{"--x", ...}` in its source), the entries of cli.cc whose group
(`{Group, {"--x", ...}}`) the driver's `cli::addGroups(...)` call
names, and cli.cc's untagged entries, which every driver takes. A flag
may be declared in only one of the two files. The documented set comes
from running `<driver> --help` and collecting the flag lines (two
spaces, then `--`). Exits 0 on success, 1 with the difference
otherwise. Stdlib only.
"""

import re
import subprocess
import sys

ENTRY_RE = re.compile(r'\{\s*"(--[a-z][a-z0-9-]*)"')
GROUP_ENTRY_RE = re.compile(r'\{\s*(\w+),\s*\{\s*"(--[a-z][a-z0-9-]*)"')
GROUPS_CALL_RE = re.compile(r"addGroups\(([^;]*)\);")
HELP_FLAG_RE = re.compile(r"^  (--[a-z][a-z0-9-]*)")


def declared_flags(source, cli_source):
    """Returns the driver's declared flags and those declared twice."""
    with open(source, encoding="utf-8") as f:
        src = f.read()
    with open(cli_source, encoding="utf-8") as f:
        cli = f.read()
    groups = {}
    for group, flag in GROUP_ENTRY_RE.findall(cli):
        groups.setdefault(group, set()).add(flag)
    shared = set(ENTRY_RE.findall(cli))
    declared = set(ENTRY_RE.findall(src))
    twice = declared & shared
    declared |= shared - set().union(*groups.values())
    for call in GROUPS_CALL_RE.findall(src):
        for group in re.findall(r"cli::(\w+)", call):
            declared |= groups.get(group, set())
    return declared, twice


def documented_flags(binary):
    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write("check_help_coverage: '%s --help' exited %d\n"
                         % (binary, proc.returncode))
        sys.exit(1)
    counts = {}
    for line in proc.stdout.splitlines():
        m = HELP_FLAG_RE.match(line)
        if m:
            counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    return counts


def main(argv):
    if len(argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    declared, twice = declared_flags(argv[2], argv[3])
    documented = documented_flags(argv[1])

    problems = ["%s is declared in both %s and %s" % (f, argv[2], argv[3])
                for f in sorted(twice)]
    problems += ["%s listed %d times in --help" % (f, n)
                 for f, n in sorted(documented.items()) if n != 1]
    problems += ["%s is declared but missing from --help" % f
                 for f in sorted(declared - set(documented))]
    problems += ["%s is in --help but never declared" % f
                 for f in sorted(set(documented) - declared)]
    for p in problems:
        sys.stderr.write("check_help_coverage: %s\n" % p)
    if problems:
        return 1
    print("check_help_coverage: OK (%d flags)" % len(declared))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
