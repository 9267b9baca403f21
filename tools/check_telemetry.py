#!/usr/bin/env python3
"""Validates the telemetry artefacts the harnesses export.

Usage:
  check_telemetry.py METRICS.prom SERIES.csv TRACE.json
  check_telemetry.py --profile PROFILE.json [EVENTS.json]
  check_telemetry.py --attribution ATTRIBUTION.json
  check_telemetry.py --merged-trace TRACE.json

Positional mode checks the three Table-I exports, in order:
  * the Prometheus text exposition is well-formed (every family has exactly
    one TYPE header, samples parse) and carries the headline capacity
    metrics: SIP message counts by method/status, blocked-call counters by
    reason, and the active-channel gauge;
  * the per-second CSV has the standard sampler columns, at least one row,
    and a strictly increasing time axis;
  * the Chrome trace JSON is Perfetto-loadable in shape (process/thread
    metadata, complete "X" events with ph/pid/tid/name/ts/dur, instant "i"
    events with ph/pid/tid/name/ts) and contains at least one call track
    with a complete setup -> media -> teardown lifecycle.

--profile validates an event-engine profile (`pbxcap profile --json-out` /
telemetry::to_json): schema, full builtin category coverage, and the
per-category counts summing exactly to events_processed. With EVENTS.json
(a committed reference of the same run's events_processed and per-category
event counts) it also fails unless every count matches the reference
exactly: event counts are seed-pure, so any difference is a change in what
the simulator does. The failure prints both counts of each differing row and
the fresh reference; re-record the file only for an intended change.

--attribution validates a per-shard attribution export
(telemetry::attribution_json): per-shard categories, shares summing to 1,
and the total section agreeing with the per-shard sums.

--merged-trace validates a multi-process merged Chrome trace
(telemetry::to_chrome_trace_merged): at least two Perfetto processes and
well-formed slice/instant events throughout.

Exits non-zero with a diagnostic on the first failure. Stdlib only.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_prometheus(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: empty")

    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in lines:
        if not line:
            fail(f"{path}: blank line in exposition")
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            if family in types:
                fail(f"{path}: duplicate TYPE header for {family}")
            if kind not in ("counter", "gauge", "histogram"):
                fail(f"{path}: unknown TYPE {kind!r} for {family}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue
        name_and_labels, _, value = line.rpartition(" ")
        if not name_and_labels:
            fail(f"{path}: malformed sample line {line!r}")
        try:
            v = float(value)
        except ValueError:
            fail(f"{path}: non-numeric value in {line!r}")
        family = name_and_labels.split("{", 1)[0]
        base = family
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base.removesuffix(suffix) in types:
                base = base.removesuffix(suffix)
        if base not in types:
            fail(f"{path}: sample {family} has no TYPE header")
        if types[base] in ("counter", "histogram") and v < 0:
            fail(f"{path}: negative cumulative value in {line!r}")
        samples[name_and_labels] = v

    required = [
        'pbxcap_sip_messages_observed_total{type="INVITE"}',
        'pbxcap_sip_messages_observed_total{type="BYE"}',
        'pbxcap_sip_messages_observed_total{type="200"}',
        "pbxcap_pbx_active_channels",
        "pbxcap_pbx_invites_total",
    ]
    for key in required:
        if key not in samples:
            fail(f"{path}: required metric {key} missing")
    blocked = [k for k in samples if k.startswith("pbxcap_pbx_calls_blocked_total")]
    if not blocked:
        fail(f"{path}: no pbxcap_pbx_calls_blocked_total series")
    print(
        f"  {path}: {len(samples)} samples in {len(types)} families; "
        f"INVITEs={samples[required[0]]:.0f} "
        f"blocked={sum(samples[k] for k in blocked):.0f}"
    )


def check_series(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if len(lines) < 2:
        fail(f"{path}: need a header plus at least one sample row")
    header = lines[0].split(",")
    required = [
        "time_s",
        "active_channels",
        "cpu_utilization",
        "blocking_probability",
        "calls_blocked_per_s",
        "sip_msgs_per_s",
        "rtp_pkts_per_s",
    ]
    for col in required:
        if col not in header:
            fail(f"{path}: column {col} missing from header {header}")
    prev_t = float("-inf")
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            fail(f"{path}:{i}: {len(cells)} cells, header has {len(header)}")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            fail(f"{path}:{i}: non-numeric cell in {line!r}")
        if values[0] <= prev_t:
            fail(f"{path}:{i}: time axis not strictly increasing")
        prev_t = values[0]
    print(f"  {path}: {len(lines) - 1} rows x {len(header)} columns, {prev_t:.0f} s span")


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    processes, tracks, complete, instants = scan_trace_events(path, events)
    if not processes:
        fail(f"{path}: no process_name metadata")

    lifecycle = {"call.setup", "call.media", "call.teardown"}
    full_calls = sum(1 for names in tracks.values() if lifecycle <= names)
    if full_calls == 0:
        fail(f"{path}: no track has a complete setup/media/teardown lifecycle")
    print(
        f"  {path}: {complete} spans + {instants} instants on {len(tracks)} tracks; "
        f"{full_calls} complete call lifecycles"
    )


def scan_trace_events(path: str, events: list) -> tuple[set, dict, int, int]:
    """Shared trace-event walk: returns (process pids, per-(pid,tid) name
    sets, slice count, instant count), failing on any malformed event."""
    processes: set[int] = set()
    tracks: dict[tuple, set[str]] = {}
    complete = 0
    instants = 0
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "process_name":
                processes.add(e.get("pid", 1))
            continue
        if ph == "C":  # profiler counter tracks ride along in some exports
            for field in ("pid", "name", "ts", "args"):
                if field not in e:
                    fail(f"{path}: C event missing {field}: {e}")
            continue
        if ph == "i":
            for field in ("pid", "tid", "name", "ts"):
                if field not in e:
                    fail(f"{path}: instant event missing {field}: {e}")
            instants += 1
            tracks.setdefault((e["pid"], e["tid"]), set()).add(e["name"])
            continue
        if ph != "X":
            fail(f"{path}: unexpected phase {ph!r}")
        for field in ("pid", "tid", "name", "ts", "dur"):
            if field not in e:
                fail(f"{path}: X event missing {field}: {e}")
        if e["dur"] < 0:
            fail(f"{path}: negative duration: {e}")
        complete += 1
        tracks.setdefault((e["pid"], e["tid"]), set()).add(e["name"])
    return processes, tracks, complete, instants


# The builtin category table in sim/profile.hpp; every profile export must
# cover all of these (extra experiment-registered categories may follow).
BUILTIN_CATEGORIES = [
    "unattributed",
    "sip",
    "rtp-packet",
    "rtp-fluid-flush",
    "pbx",
    "dispatch",
    "fault",
    "timer-wheel",
    "shard-mailbox",
    "loadgen",
    "acd",
]


def check_profile_data(path: str, doc: dict, label: str = "") -> int:
    """Validates one ProfileData JSON object; returns its total event count."""
    where = f"{path}{label}"
    if "events_processed" not in doc:
        fail(f"{where}: events_processed missing")
    categories = doc.get("categories")
    if not isinstance(categories, list) or not categories:
        fail(f"{where}: categories missing or empty")
    names = []
    total = 0
    for cat in categories:
        for field in ("name", "events", "share"):
            if field not in cat:
                fail(f"{where}: category missing {field}: {cat}")
        if cat["events"] < 0 or not 0.0 <= cat["share"] <= 1.0:
            fail(f"{where}: implausible category row {cat}")
        names.append(cat["name"])
        total += cat["events"]
    if names[: len(BUILTIN_CATEGORIES)] != BUILTIN_CATEGORIES:
        fail(
            f"{where}: builtin categories missing or out of order: "
            f"{names[:len(BUILTIN_CATEGORIES)]}"
        )
    if total != doc["events_processed"]:
        fail(
            f"{where}: category counts sum to {total}, "
            f"events_processed says {doc['events_processed']} — "
            "some events are unaccounted for"
        )
    return total


def check_profile_events(path: str, doc: dict, ref_path: str) -> None:
    with open(ref_path, encoding="utf-8") as f:
        ref = json.load(f)
    fresh = {
        "events_processed": doc["events_processed"],
        "categories": {c["name"]: c["events"] for c in doc["categories"]},
    }
    want = {"events_processed": ref.get("events_processed"), **ref.get("categories", {})}
    got = {"events_processed": fresh["events_processed"], **fresh["categories"]}
    diffs = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    if diffs:
        for name in diffs:
            print(f"  {name}: reference {want.get(name)}, this run {got.get(name)}",
                  file=sys.stderr)
        print(f"  fresh counts: {json.dumps(fresh)}", file=sys.stderr)
        fail(f"{path}: event counts differ from {ref_path}")
    print(f"  {path}: {fresh['events_processed']} events, every category as in {ref_path}")


def check_profile(path: str, ref_path: str | None = None) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    total = check_profile_data(path, doc)
    if ref_path is not None:
        check_profile_events(path, doc, ref_path)
    top = max(doc["categories"], key=lambda c: c["events"])
    print(
        f"  {path}: {total} events fully attributed across "
        f"{len(doc['categories'])} categories; top: {top['name']} "
        f"({100.0 * top['share']:.1f}%)"
    )


def check_attribution(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    shards = doc.get("shards")
    if not isinstance(shards, list) or not shards:
        fail(f"{path}: shards missing or empty")
    share_sum = 0.0
    events_sum = 0
    for shard in shards:
        for field in ("shard", "events", "share", "categories"):
            if field not in shard:
                fail(f"{path}: shard entry missing {field}: {shard}")
        if sum(shard["categories"].values()) != shard["events"]:
            fail(f"{path}: shard {shard['shard']}: categories do not sum to events")
        share_sum += shard["share"]
        events_sum += shard["events"]
    if abs(share_sum - 1.0) > 1e-3:
        fail(f"{path}: shard shares sum to {share_sum}, expected 1.0")
    total = doc.get("total")
    if not isinstance(total, dict):
        fail(f"{path}: total section missing")
    if check_profile_data(path, total, label=" (total)") != events_sum:
        fail(f"{path}: total section disagrees with per-shard event sums")
    hub = shards[0]
    print(
        f"  {path}: {len(shards)} shards, {events_sum} events; "
        f"{hub['shard']} share {100.0 * hub['share']:.1f}%"
    )


def check_merged_trace(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    processes, tracks, complete, instants = scan_trace_events(path, events)
    if len(processes) < 2:
        fail(f"{path}: merged trace has {len(processes)} processes, expected >= 2")
    print(
        f"  {path}: {len(processes)} processes, {complete} spans + "
        f"{instants} instants on {len(tracks)} tracks"
    )


def main() -> None:
    if len(sys.argv) in (3, 4) and sys.argv[1] == "--profile":
        check_profile(*sys.argv[2:])
    elif len(sys.argv) == 3 and sys.argv[1] == "--attribution":
        check_attribution(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "--merged-trace":
        check_merged_trace(sys.argv[2])
    elif len(sys.argv) == 4 and not sys.argv[1].startswith("--"):
        check_prometheus(sys.argv[1])
        check_series(sys.argv[2])
        check_trace(sys.argv[3])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()
