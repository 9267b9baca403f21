#!/usr/bin/env python3
"""pbxcap benchmark: three workloads that split the media, signalling and
shard layers of the simulator.

    python3 perfbench/run.py --workload table1-packet --seed 4242 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test          # references + fluid twin
    python3 perfbench/run.py --record             # rewrite references.json

Run from the repository root. The first call builds perfbench/pbxbench (and
the whole pbxcap library it links) under .bench_build/. Each repetition runs
in its own process, so peak RSS is per run. Repetition i uses seed + i.

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones; the
last line of stdout is the JSON result. A fuller record (manifest, every
repetition) goes to .bench_build/results/. See perfbench/README.md for what
each metric means and why each workload was chosen.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pbxbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("table1-packet", "campus-fluid", "fleet-sharded")
DEFAULT_SEED = 4242
HELD_OUT_SEED = 1729
# Profiler categories reported per layer (prof.<cat>.*).
CATEGORIES = ("rtp-packet", "sip", "loadgen", "dispatch", "rtp-fluid-flush", "shard-mailbox")
# A category mean from fewer sampled fires is not an estimate.
MIN_SAMPLES = 10
# setup_s: before each workload repetition, a burst of no-arrival set-ups of
# at least this many repetitions and this long. Spreading the bursts over the
# run samples the host's slow and fast phases alike.
SETUP_REPS = 3
SETUP_SECONDS = 0.25
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"run.py: {msg}")
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "cluster.hpp")):
        fail(f"pbxcap sources not found under {os.path.join(ROOT, 'src')}", 2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def pbxbench(*args):
    """Runs the driver once; returns its JSON object, or None if it failed."""
    try:
        proc = subprocess.run([BINARY, *map(str, args)], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pbxbench {' '.join(map(str, args))}: timed out")
        return None
    if proc.returncode != 0:
        log(f"pbxbench {' '.join(map(str, args))}: exit {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def manifest(compiled, args):
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    release = compiled["optimize"] and compiled["ndebug"]
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "compiler": compiled["compiler"],
        "optimized": compiled["optimize"],
        "ndebug": compiled["ndebug"],
        "non_release": not release,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_references():
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def conserved(fp):
    return fp["attempted"] == fp["completed"] + fp["blocked"] + fp["failed"] + fp["rejected_488"]


def check_run(run, refs):
    """Returns the list of problems with one repetition (empty when correct)."""
    problems = []
    fp = run["fingerprint"]
    if not conserved(fp):
        problems.append(f"conservation: attempted {fp['attempted']} != completed + blocked "
                        f"+ failed + 488")
    ref = refs.get(run["workload"], {}).get(str(run["seed"]))
    if ref is not None and ref != fp:
        diff = {k: (ref.get(k), fp.get(k)) for k in set(ref) | set(fp) if ref.get(k) != fp.get(k)}
        problems.append(f"fingerprint differs from seed {run['seed']} reference: {diff}")
    events = run["counts"]["events"]
    if run["shards"] and sum(s["events"] for s in run["shards"]) != events:
        problems.append("per-shard events do not sum to the total")
    if "profile" in run:
        prof = run["profile"]
        total = sum(c["events"] for c in prof["categories"].values())
        if not total == prof["events_processed"] == events:
            problems.append(f"profiler categories sum to {total}, kernel counted {events}")
    return problems


def check_pair(plain, traced):
    problems = []
    if traced["fingerprint"] != plain["fingerprint"]:
        problems.append("traced run changed the outcome fingerprint")
    if traced["counts"]["events"] != plain["counts"]["events"]:
        problems.append(f"traced run executed {traced['counts']['events']} events, untraced "
                        f"{plain['counts']['events']}")
    return problems


def shard_times(run):
    """Busiest worker's summed shard wall time and the longest worker wait.

    Shard s runs on worker s % W. Wait is the run's wall time minus a worker's
    busy time, so it also holds barrier overhead and scheduling noise: an
    upper bound on time spent blocked at the barrier.
    """
    workers = run["shard_threads"]
    if not run["shards"] or workers == 0:
        return 0.0, 0.0
    busy = [0.0] * workers
    for s, shard in enumerate(run["shards"]):
        busy[s % workers] += shard["wall_s"]
    return max(busy), max(run["wall_s"] - b for b in busy)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runs, setup):
    med = statistics.median
    return {
        "wall_s": metric(med(r["wall_s"] for r in runs), "s"),
        "cpu_s": metric(med(r["cpu_s"] for r in runs), "s"),
        "calls_per_s": metric(sum(r["fingerprint"]["attempted"] for r in runs) /
                              sum(r["wall_s"] for r in runs), "1/s"),
        "events_per_call_s": metric(med(r["counts"]["events"] /
                                        (r["fingerprint"]["rtp_packets_at_pbx"] / 100.0)
                                        for r in runs), "1/s"),
        "peak_rss_mb": metric(med(r["peak_rss_kb"] / 1024.0 for r in runs), "MB"),
        "setup_s": metric(med(setup), "s"),
    }


def self_ms(cat):
    if cat["samples"] < MIN_SAMPLES:
        return 0.0  # unsampled: no mean to scale
    return cat["events"] * cat["timed_ns"] / cat["samples"] / 1e6


def per_layer(plain, traced, mismatch_ratio):
    med = statistics.median
    first = plain[0]
    fp, counts = first["fingerprint"], first["counts"]
    m = {
        "sim.events": metric(counts["events"], "count"),
        "sim.ns_per_event": metric(med(r["wall_s"] / r["counts"]["events"] * 1e9
                                       for r in plain), "ns"),
    }
    for name in CATEGORIES:
        cats = [r["profile"]["categories"].get(name, {"events": 0, "samples": 0, "timed_ns": 0})
                for r in traced]
        m[f"prof.{name}.events"] = metric(cats[0]["events"], "count")
        m[f"prof.{name}.self_ms"] = metric(med(self_ms(c) for c in cats), "ms")
        m[f"prof.{name}.samples"] = metric(cats[0]["samples"], "count")
    m.update({
        "sip.messages": metric(fp["sip_total"], "count"),
        "sip.retransmissions": metric(fp["sip_retransmissions"], "count"),
        "rtp.packets_at_pbx": metric(fp["rtp_packets_at_pbx"], "count"),
        "pbx.rtp_relayed": metric(fp["rtp_relayed"], "count"),
        "pbx.channels_peak": metric(fp["channels_peak"], "count"),
        "net.uplink_packets": metric(counts["uplink_packets"], "count"),
        "net.uplink_bytes": metric(counts["uplink_bytes"], "B"),
        "dispatch.failovers": metric(counts["failovers"], "count"),
        "dispatch.rejected": metric(counts["dispatch_rejected"], "count"),
    })
    shards = first["shards"]
    total = sum(s["events"] for s in shards)
    busiest = max((s["events"] for s in shards), default=0)
    times = [shard_times(r) for r in plain]
    m.update({
        "exp.shard.rounds": metric(first["shard_rounds"], "count"),
        "exp.shard.messages": metric(sum(s["messages_in"] for s in shards), "count"),
        "exp.shard.clamped": metric(first["shard_clamped"], "count"),
        "exp.shard.hub_share": metric(shards[0]["events"] / total if total else 0.0, "ratio"),
        "exp.shard.balance_bound": metric(total / busiest if busiest else 0.0, "ratio"),
        "exp.shard.busy_s_max": metric(med(t[0] for t in times), "s"),
        "exp.shard.wait_s_max": metric(med(t[1] for t in times), "s"),
        "telemetry.overhead_pct": metric(
            med((t["wall_s"] / p["wall_s"] - 1.0) * 100.0 for p, t in zip(plain, traced)), "%"),
        "mismatch_ratio": metric(mismatch_ratio, "ratio"),
    })
    return m


def measure(args, refs):
    """Runs repetitions for about args.seconds.

    Returns the untraced and traced runs, the set-up times, the problems
    found, and how many runs were attempted and failed.
    """
    setup, plain, traced, problems = [], [], [], []
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    rep_s = 0.0
    i = 0
    while i == 0 or time.monotonic() + rep_s < deadline:
        t0 = time.monotonic()
        seed = args.seed + i
        if args.trace == 0:
            out = pbxbench("setup", args.workload, seed, SETUP_REPS, SETUP_SECONDS)
            if out is None:
                fail("setup measurement failed")
            setup += out["setup_s"]
        group = [pbxbench("run", args.workload, seed)]
        if args.trace == 1:
            group.append(pbxbench("run", args.workload, seed, "--traced"))
        rep_problems = []
        if any(r is None for r in group):
            rep_problems.append("pbxbench run failed")
        else:
            for r in group:
                rep_problems += check_run(r, refs)
            if len(group) == 2:
                rep_problems += check_pair(*group)
            plain.append(group[0])
            traced += group[1:]
        attempted += len(group)
        if rep_problems:
            failed += len(group)
            problems += [f"seed {seed}: {p}" for p in rep_problems]
        rep_s = time.monotonic() - t0
        i += 1
    return plain, traced, setup, problems, attempted, failed


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this trace mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def print_table(metrics):
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14} {m['unit']}")


def bench(args):
    build()
    compiled = pbxbench("manifest")
    if compiled is None:
        fail("pbxbench manifest failed")
    man = manifest(compiled, args)
    if man["non_release"] and os.environ.get("PBXCAP_BENCH_ALLOW_DEBUG") != "1":
        fail("pbxbench was not built optimized with NDEBUG; its timings are not comparable. "
             "Set PBXCAP_BENCH_ALLOW_DEBUG=1 to run anyway (results tagged non_release).")
    man["loadavg_before"] = loadavg()
    refs = load_references()
    plain, traced, setup, problems, attempted, failed = measure(args, refs)
    man["loadavg_after"] = loadavg()
    man["config"] = plain[0]["config"] if plain else None

    if not plain or (args.trace == 1 and not traced):
        metrics = {}
    elif args.trace == 0:
        metrics = end_to_end(plain, setup)
    else:
        metrics = per_layer(plain, traced, failed / attempted)
    declared = declared_metrics(args.trace)
    if metrics and declared is not None and declared != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")
    correct = not problems and bool(metrics)

    print(f"pbxcap benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(plain)} repetitions")
    print("manifest: " + json.dumps(man, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if metrics:
        print_table(metrics)
    os.makedirs(RESULTS, exist_ok=True)
    record = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"manifest": man, "metrics": metrics, "problems": problems,
                   "setup_s": setup, "runs": plain, "traced_runs": traced}, f, indent=1)
    print(f"wrote {os.path.relpath(record, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test(record):
    """Checks (or with record=True rewrites) the outcome references at the
    default and held-out seeds, and pins campus-fluid to its per-packet twin."""
    build()
    refs = {} if record else load_references()
    problems = []
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            run = pbxbench("run", workload, seed)
            if run is None:
                problems.append(f"{workload} seed {seed}: run failed")
                continue
            if record:
                refs.setdefault(workload, {})[str(seed)] = run["fingerprint"]
            elif str(seed) not in refs.get(workload, {}):
                problems.append(f"{workload} seed {seed}: no reference recorded")
            problems += [f"{workload} seed {seed}: {p}" for p in check_run(run, refs)]
            log(f"{workload} seed {seed}: {run['fingerprint']['attempted']} calls, "
                f"{run['counts']['events']} events, {run['wall_s']:.2f} s")
    if record:
        with open(REFERENCES, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {os.path.relpath(REFERENCES, ROOT)}")
    # Fluid media must not change any outcome: the per-packet twin of
    # campus-fluid (about 95 s) has to reproduce its fingerprint. The one
    # known exception is rtp_relayed: per-packet media leaves a few packets
    # that reach a PBX unrelayed (13 of 35.7M at seed 4242) where fluid
    # relays all of them. That is a program discrepancy, bounded here at one
    # packet per million rather than hidden.
    fluid = refs.get("campus-fluid", {}).get(str(DEFAULT_SEED), {})
    twin = pbxbench("run", "campus-fluid", DEFAULT_SEED, "--fluid-off")
    if twin is None:
        problems.append("campus-fluid per-packet twin: run failed")
    else:
        fp = dict(twin["fingerprint"])
        unrelayed = fluid.get("rtp_relayed", 0) - fp.pop("rtp_relayed")
        expected = {k: v for k, v in fluid.items() if k != "rtp_relayed"}
        if fp != expected:
            problems.append(f"campus-fluid per-packet twin differs: {fp} vs {expected}")
        if not 0 <= unrelayed <= fp["rtp_packets_at_pbx"] // 1_000_000:
            problems.append(f"campus-fluid per-packet twin relays {unrelayed} fewer packets")
        log(f"campus-fluid per-packet twin: identical, {unrelayed} packets unrelayed, "
            f"{twin['wall_s']:.1f} s")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.self_test or args.record:
        return self_test(args.record)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
