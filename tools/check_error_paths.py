#!/usr/bin/env python3
"""Exercise the drivers' exporter/postmortem and command-line error paths.

Every artifact flag pointed at an unwritable target must make the
driver report the failure and exit nonzero — without crashing, and
without losing the run's primary output (program output and --stats
still appear). A --postmortem-dir= that cannot be created is a
warning, not a second failure: the bundle is best-effort diagnostics
for a run that already failed. A malformed flag value or program
argument is a usage error: exit 2 with the usage text on stderr.

Usage: check_error_paths.py <fpcvm> <fpcrun> <programs-dir>
"""

import pathlib
import subprocess
import sys
import tempfile

failures = []


def run(cmd):
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120
    )


def check(label, ok, detail=""):
    if ok:
        print(f"ok: {label}")
    else:
        failures.append(label)
        print(f"FAIL: {label} {detail}")


def expect_write_error(label, proc, needle="cannot write"):
    crashed = proc.returncode < 0
    check(f"{label}: no crash", not crashed, f"(signal {-proc.returncode})")
    check(f"{label}: exit nonzero", proc.returncode == 1,
          f"(exit {proc.returncode})")
    check(f"{label}: reports the error", needle in proc.stderr,
          f"(stderr: {proc.stderr!r})")


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    fpcvm, fpcrun = sys.argv[1], sys.argv[2]
    programs = pathlib.Path(sys.argv[3])
    primes = programs / "primes.mm"
    trap = programs / "trap.mm"

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = pathlib.Path(tmp)
        blocker = tmpdir / "blocker"
        blocker.write_text("occupied\n")

        # A directory where a file is expected: the stream open fails.
        for flag in ("--metrics-out", "--openmetrics-out", "--stats-json",
                     "--trace-out", "--record-out"):
            p = run([fpcvm, "--stats", f"{flag}={tmpdir}", primes, "10"])
            expect_write_error(f"fpcvm {flag}=<dir>", p)
            check(f"fpcvm {flag}=<dir>: stats preserved",
                  "--- statistics ---" in p.stdout)

        for flag in ("--metrics-out", "--openmetrics-out", "--stats-json",
                     "--trace-out", "--record-out"):
            p = run([fpcrun, "--jobs=2", f"{flag}={tmpdir}", primes, "10"])
            expect_write_error(f"fpcrun {flag}=<dir>", p)

        # A postmortem dir blocked by an existing file: the failing run
        # still reports its own error and exits 1, the bundle failure
        # is only warned about, and nothing crashes.
        p = run([fpcvm, f"--postmortem-dir={blocker}", trap])
        check("fpcvm --postmortem-dir=<file>: no crash", p.returncode >= 0)
        check("fpcvm --postmortem-dir=<file>: exit nonzero",
              p.returncode == 1, f"(exit {p.returncode})")
        check("fpcvm --postmortem-dir=<file>: program error reported",
              "division by zero" in p.stderr, f"(stderr: {p.stderr!r})")
        check("fpcvm --postmortem-dir=<file>: bundle failure warned",
              "cannot create" in p.stderr, f"(stderr: {p.stderr!r})")

        p = run([fpcrun, "--jobs=2", f"--postmortem-dir={blocker}", trap])
        check("fpcrun --postmortem-dir=<file>: no crash", p.returncode >= 0)
        check("fpcrun --postmortem-dir=<file>: exit nonzero",
              p.returncode == 1, f"(exit {p.returncode})")

        # Malformed values: the whole string must be a number that fits.
        for label, cmd in (
                ("fpcvm --banks=4x", [fpcvm, "--banks=4x", primes, "10"]),
                ("fpcvm --timeslice=-5",
                 [fpcvm, "--timeslice=-5", "--stats", primes, "10"]),
                ("fpcvm --impl=bogus", [fpcvm, "--impl=bogus", primes, "10"]),
                ("fpcvm <file> abc", [fpcvm, primes, "abc"]),
                ("fpcrun --jobs=2x", [fpcrun, "--jobs=2x", primes, "10"]),
                ("fpcrun --impl=bogus",
                 [fpcrun, "--impl=bogus", primes, "10"]),
                ("fpcrun <file> 10x", [fpcrun, "--jobs=1", primes, "10x"])):
            p = run(cmd)
            check(f"{label}: no crash", p.returncode >= 0,
                  f"(signal {-p.returncode})")
            check(f"{label}: usage error", p.returncode == 2,
                  f"(exit {p.returncode})")
            check(f"{label}: prints the usage", "usage:" in p.stderr,
                  f"(stderr: {p.stderr!r})")

        # Control: the same flags pointed somewhere writable succeed.
        p = run([fpcvm, f"--metrics-out={tmpdir/'m.json'}",
                 f"--record-out={tmpdir/'r.fpcr'}", primes, "10"])
        check("fpcvm control run succeeds", p.returncode == 0,
              f"(exit {p.returncode}, stderr: {p.stderr!r})")
        check("fpcvm control artifacts written",
              (tmpdir / "m.json").exists() and (tmpdir / "r.fpcr").exists())

    if failures:
        print(f"\n{len(failures)} error-path check(s) failed")
        return 1
    print("\nall error-path checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
