#!/usr/bin/env python3
"""Validator for the fpc-spans-v1 span log (and the matching Perfetto
JSON trace).

Usage:
    check_spans.py --file <spans.txt> [--trace <trace.json>]
                   [--slack-ns N]
    check_spans.py <driver> [driver args...]

In driver mode the driver is run with --spans-out=<tmpfile> appended
and the resulting log is validated. The checks mirror the C++
checkSpans() well-bracketing rules:

  * the log parses: magic line, header counters, tenant table, span
    and fault records, `eof` terminator;
  * every span's end >= start; phases lie within their request span's
    bounds, do not overlap each other, and appear in canonical order
    (admission, queued, dispatch, execute, reply);
  * the steps of execute (prepare, run) lie within it, in that order,
    and when the ring dropped nothing an ok execute that has steps
    has exactly prepare then run, tiling it;
  * when the ring dropped nothing, a complete ok request that was
    admitted carries its phases as an exact partition of the request
    interval: phase durations sum to the request duration within
    --slack-ns (default 0 — the writers share boundary timestamps);
  * the log reports zero bracketing faults;
  * with --trace, the Perfetto export parses as JSON and every "X"
    slice has non-negative ts/dur.

Truncated logs (dropped > 0) skip the completeness checks: the ring
legally evicts oldest spans, so torn trees are not faults. Exits 0
when valid, 1 with a diagnosis otherwise. Stdlib only.
"""

import json
import os
import subprocess
import sys
import tempfile

PHASE_ORDER = ["admission", "queued", "dispatch", "execute", "reply"]
STEP_ORDER = ["prepare", "run"]
KINDS = set(PHASE_ORDER) | set(STEP_ORDER) | {"request"}


def fail(why):
    sys.stderr.write("check_spans: %s\n" % why)
    sys.exit(1)


def parse_log(text):
    lines = text.splitlines()
    if not lines or lines[0] != "fpc-spans-v1":
        fail("missing fpc-spans-v1 magic line")
    header = {}
    spans = []
    faults = []
    tenants = {}
    saw_eof = False
    for lineno, line in enumerate(lines[1:], start=2):
        if saw_eof:
            fail("line %d: content after 'eof'" % lineno)
        parts = line.split()
        if not parts:
            fail("line %d: blank line" % lineno)
        tag = parts[0]
        if tag == "eof":
            saw_eof = True
        elif tag in ("driver",):
            header[tag] = parts[1] if len(parts) > 1 else ""
        elif tag in ("capacity", "recorded", "dropped", "faults"):
            if len(parts) != 2 or not parts[1].isdigit():
                fail("line %d: malformed '%s' line" % (lineno, tag))
            header[tag] = int(parts[1])
        elif tag == "tenant":
            if len(parts) < 3 or not parts[1].isdigit():
                fail("line %d: malformed tenant line" % lineno)
            tenants[int(parts[1])] = " ".join(parts[2:])
        elif tag == "span":
            if len(parts) != 10:
                fail("line %d: span record needs 9 fields" % lineno)
            (_, sid, trace_id, req_id, kind, track, tenant, start,
             end, ok) = parts
            if kind not in KINDS:
                fail("line %d: unknown span kind %r" % (lineno, kind))
            if ":" not in track:
                fail("line %d: malformed track %r" % (lineno, track))
            if ok not in ("ok", "err"):
                fail("line %d: bad ok flag %r" % (lineno, ok))
            spans.append({
                "id": int(sid), "traceId": int(trace_id),
                "reqId": int(req_id), "kind": kind, "track": track,
                "tenant": tenant, "start": int(start),
                "end": int(end), "ok": ok == "ok",
                "lineno": lineno,
            })
        elif tag == "fault":
            faults.append(line)
        else:
            fail("line %d: unknown record %r" % (lineno, tag))
    if not saw_eof:
        fail("missing 'eof' terminator")
    for key in ("capacity", "recorded", "dropped", "faults"):
        if key not in header:
            fail("missing '%s' header line" % key)
    if header["faults"] != len(faults):
        fail("faults header says %d, %d fault records present"
             % (header["faults"], len(faults)))
    return header, spans, faults, tenants


def check_steps(sid, phases, steps, truncated, slack_ns):
    """The steps of execute lie inside it, in order, and tile an ok
    execute."""
    execs = [s for s in phases if s["kind"] == "execute"]
    if not execs:
        if steps and not truncated:
            fail("request %d: %s step without an execute span"
                 % (sid, steps[0]["kind"]))
        return
    ex = execs[0]
    prev = None
    for s in steps:
        if s["start"] < ex["start"] or s["end"] > ex["end"]:
            fail("request %d: %s outside the execute bounds"
                 % (sid, s["kind"]))
        if prev is not None and (s["start"] < prev["end"] or
                                 s["kind"] == prev["kind"]):
            fail("request %d: %s overlaps or repeats %s"
                 % (sid, s["kind"], prev["kind"]))
        prev = s
    if truncated or not ex["ok"] or not steps:
        return
    if [s["kind"] for s in steps] != STEP_ORDER:
        fail("request %d: execute has steps %s, want %s"
             % (sid, [s["kind"] for s in steps], STEP_ORDER))
    cursor = ex["start"]
    for s in steps:
        if abs(s["start"] - cursor) > slack_ns:
            fail("request %d: %s leaves a gap in execute"
                 % (sid, s["kind"]))
        cursor = s["end"]
    if abs(cursor - ex["end"]) > slack_ns:
        fail("request %d: steps end before execute does" % sid)


def check_trees(header, spans, slack_ns):
    truncated = header["dropped"] > 0
    trees = {}
    for s in spans:
        if s["end"] < s["start"]:
            fail("line %d: span ends before it starts" % s["lineno"])
        trees.setdefault(s["id"], []).append(s)

    complete = 0
    for sid, tree in sorted(trees.items()):
        requests = [s for s in tree if s["kind"] == "request"]
        phases = [s for s in tree if s["kind"] in PHASE_ORDER]
        steps = sorted((s for s in tree if s["kind"] in STEP_ORDER),
                       key=lambda s: (s["start"],
                                      STEP_ORDER.index(s["kind"])))
        check_steps(sid, phases, steps, truncated, slack_ns)
        if len(requests) > 1:
            fail("request %d has %d request spans"
                 % (sid, len(requests)))
        if not requests:
            if truncated:
                continue  # the request span was legally evicted
            fail("request %d has phases but no request span" % sid)
        req = requests[0]
        phases.sort(key=lambda s: s["start"])
        prev_end = None
        prev_rank = -1
        for s in phases:
            if s["start"] < req["start"] or s["end"] > req["end"]:
                fail("request %d: %s span outside the request bounds"
                     % (sid, s["kind"]))
            if prev_end is not None and s["start"] < prev_end:
                fail("request %d: %s overlaps the previous phase"
                     % (sid, s["kind"]))
            rank = PHASE_ORDER.index(s["kind"])
            if rank <= prev_rank:
                fail("request %d: phases out of canonical order"
                     % sid)
            prev_end, prev_rank = s["end"], rank

        # Completeness: only checkable on untruncated logs, and only
        # promised for ok requests that were admitted (an ok
        # admission phase is present).
        admitted_ok = any(s["kind"] == "admission" and s["ok"]
                          for s in phases)
        if truncated or not req["ok"] or not admitted_ok:
            continue
        if len(phases) != len(PHASE_ORDER):
            fail("request %d: admitted ok request has %d phases, "
                 "want %d" % (sid, len(phases), len(PHASE_ORDER)))
        total = sum(s["end"] - s["start"] for s in phases)
        want = req["end"] - req["start"]
        if abs(total - want) > slack_ns:
            fail("request %d: phase durations sum to %d ns, request "
                 "span is %d ns (slack %d)"
                 % (sid, total, want, slack_ns))
        complete += 1
    return len(trees), complete


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: no traceEvents array")
    slices = 0
    for e in events:
        if e.get("ph") == "X":
            if e.get("ts", -1) < 0 or e.get("dur", -1) < 0:
                fail("trace: X slice with negative ts/dur: %r" % e)
            slices += 1
    return slices


def main(argv):
    slack_ns = 0
    trace_path = None
    args = argv[1:]
    rest = []
    i = 0
    while i < len(args):
        if args[i] == "--slack-ns" and i + 1 < len(args):
            slack_ns = int(args[i + 1])
            i += 2
        elif args[i].startswith("--slack-ns="):
            slack_ns = int(args[i].split("=", 1)[1])
            i += 1
        elif args[i] == "--trace" and i + 1 < len(args):
            trace_path = args[i + 1]
            i += 2
        elif args[i].startswith("--trace="):
            trace_path = args[i].split("=", 1)[1]
            i += 1
        else:
            rest.append(args[i])
            i += 1

    if len(rest) >= 2 and rest[0] == "--file":
        with open(rest[1], "r", encoding="utf-8") as f:
            text = f.read()
    elif rest:
        fd, path = tempfile.mkstemp(suffix=".spans.txt")
        os.close(fd)
        try:
            cmd = rest + ["--spans-out=" + path]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                sys.stderr.write(
                    "check_spans: driver exited %d\n" % proc.returncode)
                return 1
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        finally:
            os.unlink(path)
    else:
        sys.stderr.write(__doc__)
        return 2

    header, spans, faults, _ = parse_log(text)
    if faults:
        fail("log reports %d bracketing fault(s):\n  %s"
             % (len(faults), "\n  ".join(faults)))
    trees, complete = check_trees(header, spans, slack_ns)
    msg = ("check_spans: OK (%d spans, %d request trees, %d complete, "
           "%d dropped)" % (len(spans), trees, complete,
                            header["dropped"]))
    if trace_path:
        slices = check_trace(trace_path)
        msg += "; trace OK (%d slices)" % slices
    print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
