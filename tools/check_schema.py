#!/usr/bin/env python3
"""Validate the simulator's observability artifacts against their schemas.

One structural checker, without external jsonschema dependencies, for
every artifact a run writes. The CI workflow runs it against artifacts
produced by real simulation runs, so a field rename or type change in a
C++ emitter fails the build instead of silently breaking downstream
consumers (tools/render_heatmap.py, tools/render_timeseries.py,
chrome://tracing, dashboards, tail -f watchers).

The schema is picked per file, from the document's "schema" field or,
for a Chrome trace, from its shape:
  footprint.profile/1     simulate --profile, micro_cycle --profile
                          (DESIGN.md §14): phase table, sharded block.
  footprint.heatmap/1     simulate --heatmap (DESIGN.md §14): windows
                          tile the run, one grid cell per mesh node.
  footprint.timeseries/1  simulate --timeseries (DESIGN.md §15), JSONL:
                          line 1 is the header (schema, run metadata,
                          mesh, interval, detector parameters), every
                          further line one window record. Windows tile
                          the run, indices are consecutive, percentiles
                          are monotone, and the VA grants name exactly
                          the five Priority regimes.
  Chrome trace-event      simulate --chrome-trace (DESIGN.md §10): an
                          object with a "traceEvents" list of known
                          phase types carrying their mandatory fields,
                          and the run-metadata footer.

Exit status: 0 when every file is valid, 1 with a diagnostic otherwise.

Usage:
  tools/check_schema.py profile.json heatmap.json
  tools/check_schema.py timeseries.jsonl --min-windows 3
  tools/check_schema.py trace.json --min-events 100 --expect-packets
"""

import argparse
import json
import sys

PROFILE_SCHEMA = "footprint.profile/1"
HEATMAP_SCHEMA = "footprint.heatmap/1"
TIMESERIES_SCHEMA = "footprint.timeseries/1"

PHASE_NAMES = ["inject", "drain", "compute", "transmit", "epilogue",
               "collect", "skip", "link"]
HEATMAP_METRICS = ["link_util", "inject_util", "eject_util", "vc_occ",
                   "fp_occ", "esc_occ", "inj_backlog"]
DIRS = ["east", "west", "north", "south"]

VA_REGIMES = ["escape", "busy", "footprint", "idle", "reclaim"]
LATENCY_FIELDS = ["count", "mean", "p50", "p99", "p999", "max"]

TRACE_PHASES = {"X", "i", "C", "M", "B", "E"}
TRACE_REQUIRED_FIELDS = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "ts"),
    "C": ("name", "pid", "ts", "args"),
    "M": ("name", "pid"),
}


class SchemaError(Exception):
    pass


def expect(cond, path, msg):
    if not cond:
        raise SchemaError("%s: %s" % (path, msg))


def check_number(value, path, minimum=None):
    expect(isinstance(value, (int, float))
           and not isinstance(value, bool), path, "must be a number")
    if minimum is not None:
        expect(value >= minimum, path, "must be >= %s" % minimum)


def check_meta(meta, path):
    expect(isinstance(meta, dict), path, "must be an object")
    for key in ("seed", "config_hash", "git"):
        expect(key in meta, path, "missing run-metadata field %r" % key)


# --- footprint.profile/1 and footprint.heatmap/1 -----------------------
def check_grid(grid, nodes, path):
    expect(isinstance(grid, list), path, "must be a list")
    expect(len(grid) == nodes, path,
           "grid has %d cells, mesh has %d nodes" % (len(grid), nodes))
    for i, v in enumerate(grid):
        check_number(v, "%s[%d]" % (path, i), minimum=0.0)


def check_profile_row(row, path):
    expect(isinstance(row, dict), path, "must be an object")
    for key in ("name", "mode", "threads", "cycles", "wall_seconds",
                "cycles_per_sec", "phases", "sharded"):
        expect(key in row, path, "missing field %r" % key)
    expect(isinstance(row["name"], str) and row["name"], path,
           "name must be a non-empty string")
    expect(row["mode"] in ("full", "activity", "verify", "sharded"),
           path, "unknown mode %r" % row["mode"])
    expect(isinstance(row["threads"], int) and row["threads"] >= 1,
           path, "threads must be a positive integer")
    check_number(row["cycles"], path + ".cycles", minimum=0)
    check_number(row["wall_seconds"], path + ".wall_seconds",
                 minimum=0.0)
    check_number(row["cycles_per_sec"], path + ".cycles_per_sec",
                 minimum=0.0)

    phases = row["phases"]
    expect(isinstance(phases, list), path + ".phases",
           "must be a list")
    names = [p.get("name") for p in phases]
    expect(names == PHASE_NAMES, path + ".phases",
           "phase names %r != %r" % (names, PHASE_NAMES))
    for p in phases:
        ppath = "%s.phases[%s]" % (path, p.get("name"))
        check_number(p.get("seconds"), ppath + ".seconds", minimum=0.0)
        check_number(p.get("calls"), ppath + ".calls", minimum=0)
        check_number(p.get("share"), ppath + ".share", minimum=0.0)
        expect(p["share"] <= 1.0 + 1e-9, ppath + ".share",
               "must be <= 1")

    sharded = row["sharded"]
    if row["mode"] == "sharded":
        expect(isinstance(sharded, dict), path + ".sharded",
               "must be an object for sharded rows")
    if sharded is None:
        return
    spath = path + ".sharded"
    for key in ("shards", "chunks", "threads", "shard_busy_seconds",
                "imbalance_ratio", "barrier_wait"):
        expect(key in sharded, spath, "missing field %r" % key)
    expect(isinstance(sharded["shards"], int) and sharded["shards"] >= 1,
           spath + ".shards", "must be a positive integer")
    busy = sharded["shard_busy_seconds"]
    expect(isinstance(busy, list) and len(busy) == sharded["shards"],
           spath + ".shard_busy_seconds",
           "must list one entry per shard")
    for i, v in enumerate(busy):
        check_number(v, "%s.shard_busy_seconds[%d]" % (spath, i),
                     minimum=0.0)
    check_number(sharded["imbalance_ratio"],
                 spath + ".imbalance_ratio", minimum=0.0)
    bw = sharded["barrier_wait"]
    expect(isinstance(bw, dict), spath + ".barrier_wait",
           "must be an object")
    for key in ("count", "p50_ns", "p99_ns", "p999_ns", "max_ns"):
        check_number(bw.get(key), "%s.barrier_wait.%s" % (spath, key),
                     minimum=0)
    expect(bw["p50_ns"] <= bw["p99_ns"] <= bw["p999_ns"],
           spath + ".barrier_wait", "percentiles must be monotone")


def check_profile(doc, path):
    expect(doc.get("schema") == PROFILE_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          PROFILE_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    rows = doc.get("rows")
    expect(isinstance(rows, list) and rows, path + ".rows",
           "must be a non-empty list")
    for i, row in enumerate(rows):
        check_profile_row(row, "%s.rows[%d]" % (path, i))
    return len(rows)


def check_heatmap(doc, path):
    expect(doc.get("schema") == HEATMAP_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          HEATMAP_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    mesh = doc.get("mesh")
    expect(isinstance(mesh, dict), path + ".mesh",
           "must be an object")
    for key in ("width", "height"):
        expect(isinstance(mesh.get(key), int) and mesh[key] >= 1,
               "%s.mesh.%s" % (path, key),
               "must be a positive integer")
    nodes = mesh["width"] * mesh["height"]
    check_number(doc.get("window"), path + ".window", minimum=1)
    check_number(doc.get("sample_interval"), path + ".sample_interval",
                 minimum=1)
    expect(doc.get("metrics") == HEATMAP_METRICS, path + ".metrics",
           "metric list %r != %r" % (doc.get("metrics"),
                                     HEATMAP_METRICS))
    windows = doc.get("windows")
    expect(isinstance(windows, list) and windows, path + ".windows",
           "must be a non-empty list")
    prev_end = None
    for i, w in enumerate(windows):
        wpath = "%s.windows[%d]" % (path, i)
        expect(isinstance(w, dict), wpath, "must be an object")
        check_number(w.get("start"), wpath + ".start", minimum=0)
        check_number(w.get("end"), wpath + ".end", minimum=0)
        expect(w["end"] > w["start"], wpath,
               "window must cover at least one cycle")
        if prev_end is not None:
            expect(w["start"] == prev_end, wpath,
                   "windows must tile the run (start %s != previous "
                   "end %s)" % (w["start"], prev_end))
        prev_end = w["end"]
        check_number(w.get("samples"), wpath + ".samples", minimum=0)
        lu = w.get("link_util")
        expect(isinstance(lu, dict), wpath + ".link_util",
               "must be an object")
        expect(sorted(lu.keys()) == sorted(DIRS),
               wpath + ".link_util",
               "directions %r != %r" % (sorted(lu.keys()),
                                        sorted(DIRS)))
        for d in DIRS:
            check_grid(lu[d], nodes, "%s.link_util.%s" % (wpath, d))
        for metric in HEATMAP_METRICS[1:]:
            check_grid(w.get(metric), nodes,
                       "%s.%s" % (wpath, metric))
    return len(windows)


# --- footprint.timeseries/1 -------------------------------------------
def check_header(doc, path):
    expect(doc.get("schema") == TIMESERIES_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          TIMESERIES_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    mesh = doc.get("mesh")
    expect(isinstance(mesh, dict), path + ".mesh", "must be an object")
    for key in ("width", "height"):
        expect(isinstance(mesh.get(key), int) and mesh[key] >= 1,
               "%s.mesh.%s" % (path, key),
               "must be a positive integer")
    check_number(doc.get("interval"), path + ".interval", minimum=1)
    check_number(doc.get("steady_windows"), path + ".steady_windows",
                 minimum=2)
    check_number(doc.get("steady_tolerance"),
                 path + ".steady_tolerance")
    expect(doc["steady_tolerance"] > 0.0, path + ".steady_tolerance",
           "must be positive")


def check_window(w, path, index, prev_end):
    expect(isinstance(w, dict), path, "must be an object")
    for key in ("window", "start", "end", "offered_flits",
                "accepted_flits", "packets", "offered_rate",
                "accepted_rate", "latency", "in_flight",
                "active_nodes", "va_grants", "va_fails",
                "watchdog_events"):
        expect(key in w, path, "missing field %r" % key)
    expect(w["window"] == index, path,
           "window index %s, expected %s" % (w["window"], index))
    check_number(w["start"], path + ".start", minimum=0)
    check_number(w["end"], path + ".end", minimum=0)
    expect(w["end"] > w["start"], path,
           "window must cover at least one cycle")
    if prev_end is not None:
        expect(w["start"] == prev_end, path,
               "windows must tile the run (start %s != previous end "
               "%s)" % (w["start"], prev_end))
    for key in ("offered_flits", "accepted_flits", "packets",
                "va_fails", "watchdog_events"):
        check_number(w[key], "%s.%s" % (path, key), minimum=0)
    for key in ("offered_rate", "accepted_rate"):
        check_number(w[key], "%s.%s" % (path, key), minimum=0.0)
    check_number(w["in_flight"], path + ".in_flight", minimum=0)
    check_number(w["active_nodes"], path + ".active_nodes", minimum=0)

    lat = w["latency"]
    expect(isinstance(lat, dict), path + ".latency",
           "must be an object")
    for key in LATENCY_FIELDS:
        check_number(lat.get(key), "%s.latency.%s" % (path, key),
                     minimum=0)
    expect(lat["p50"] <= lat["p99"] <= lat["p999"], path + ".latency",
           "percentiles must be monotone")

    grants = w["va_grants"]
    expect(isinstance(grants, dict), path + ".va_grants",
           "must be an object")
    expect(sorted(grants.keys()) == sorted(VA_REGIMES),
           path + ".va_grants",
           "regimes %r != %r" % (sorted(grants.keys()),
                                 sorted(VA_REGIMES)))
    for regime in VA_REGIMES:
        check_number(grants[regime],
                     "%s.va_grants.%s" % (path, regime), minimum=0)
    return w["end"]


def check_stream(lines, path):
    expect(len(lines) >= 1, path, "stream is empty (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise SchemaError("%s:1: invalid JSON: %s" % (path, e))
    check_header(header, path + ":1")

    prev_end = None
    for i, line in enumerate(lines[1:]):
        lpath = "%s:%d" % (path, i + 2)
        try:
            w = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError("%s: invalid JSON: %s" % (lpath, e))
        prev_end = check_window(w, lpath, i, prev_end)
    return len(lines) - 1


# --- Chrome trace-event timeline --------------------------------------
def check_trace(doc, path, min_events, expect_packets, expect_phases):
    events = doc.get("traceEvents")
    expect(isinstance(events, list), path, "missing 'traceEvents' list")
    expect(len(events) >= min_events, path,
           "only %d events, expected >= %d" % (len(events), min_events))

    counts = {}
    for i, ev in enumerate(events):
        epath = "%s.traceEvents[%d]" % (path, i)
        expect(isinstance(ev, dict), epath, "is not an object")
        ph = ev.get("ph")
        expect(ph in TRACE_PHASES, epath, "unknown phase type %r" % ph)
        for field in TRACE_REQUIRED_FIELDS.get(ph, ()):
            expect(field in ev, epath, "(ph=%s) lacks %r" % (ph, field))
        ts = ev.get("ts")
        expect(ts is None or ts >= 0, epath, "negative timestamp %s" % ts)
        if ph == "X":
            expect(ev["dur"] >= 0, epath,
                   "negative duration %s" % ev["dur"])
        counts[ph] = counts.get(ph, 0) + 1

    if expect_packets:
        pkt = sum(1 for ev in events
                  if ev.get("ph") == "X" and ev.get("name") == "pkt")
        expect(pkt > 0, path, "no packet lifecycle slices ('pkt' X events)")
        procs = {ev.get("args", {}).get("name")
                 for ev in events
                 if ev.get("ph") == "M"
                 and ev.get("name") == "process_name"}
        expect("packets" in procs, path,
               "no 'packets' process_name metadata event")

    if expect_phases:
        marks = {ev["name"] for ev in events if ev.get("ph") == "i"}
        for phase in ("phase: warmup", "phase: measure"):
            expect(phase in marks, path,
                   "missing instant marker %r" % phase)

    meta = doc.get("metadata")
    expect(isinstance(meta, dict), path, "missing run-metadata footer")
    for key in ("seed", "config_hash", "git"):
        expect(key in meta, path + ".metadata", "lacks %r" % key)

    by_phase = ", ".join("%s:%d" % (ph, n)
                         for ph, n in sorted(counts.items()))
    return "%d events (%s), metadata seed=%s config_hash=%s" % (
        len(events), by_phase, meta["seed"], meta["config_hash"])


# --- dispatch -----------------------------------------------------------
def check_file(path, args):
    """Validate one artifact; return its one-line OK summary."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    # A JSON document parses whole; a JSONL stream by its header line.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        expect(len(lines) > 1, path, "invalid JSON: %s" % e)
        try:
            doc = json.loads(lines[0])
        except json.JSONDecodeError as e1:
            raise SchemaError("%s:1: invalid JSON: %s" % (path, e1))
    expect(isinstance(doc, dict), path,
           "top level must be a JSON object")

    schema = doc.get("schema")
    if schema == TIMESERIES_SCHEMA:
        windows = check_stream(lines, path)
        expect(windows >= args.min_windows, path,
               "only %d window(s), need >= %d"
               % (windows, args.min_windows))
        return "%s, %d window(s)" % (schema, windows)
    if schema == PROFILE_SCHEMA:
        return "%s, %d row(s)" % (schema, check_profile(doc, path))
    if schema == HEATMAP_SCHEMA:
        return "%s, %d window(s)" % (schema, check_heatmap(doc, path))
    if schema is None and "traceEvents" in doc:
        return "chrome trace-event, " + check_trace(
            doc, path, args.min_events, args.expect_packets,
            args.expect_phases)
    raise SchemaError("%s: unknown schema %r (expected %s, %s, %s or a "
                      "Chrome trace-event document)"
                      % (path, schema, PROFILE_SCHEMA, HEATMAP_SCHEMA,
                         TIMESERIES_SCHEMA))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="FILE",
                    help="artifact to validate (schema picked per file)")
    ap.add_argument("--min-windows", type=int, default=1,
                    help="timeseries: fail unless at least N window "
                         "records (default 1)")
    ap.add_argument("--min-events", type=int, default=1,
                    help="chrome trace: minimum number of trace events "
                         "(default 1)")
    ap.add_argument("--expect-packets", action="store_true",
                    help="chrome trace: require packet lifecycle "
                         "slices ('pkt' X events)")
    ap.add_argument("--expect-phases", action="store_true",
                    help="chrome trace: require warmup/measure phase "
                         "markers")
    args = ap.parse_args()

    status = 0
    for path in args.files:
        try:
            print("OK %s: %s" % (path, check_file(path, args)))
        except SchemaError as e:
            print("FAIL: %s" % e)
            status = 1
        except OSError as e:
            print("FAIL: %s" % e)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
