#!/usr/bin/env python3
"""End-to-end benchmark of the AMPC/MPC simulator, with per-layer numbers.

Builds the measuring driver (ampc_e2e.cc), runs each workload in its own
process, turns the driver's raw per-rep numbers into the metrics that
BENCHMARK.json names, and prints every metric with its unit. Exits
nonzero if any output is wrong.

    python3 bench/e2e/run.py                       # all workloads, end to end
    python3 bench/e2e/run.py --workload mis-mm-web --seed 2
    python3 bench/e2e/run.py --trace               # per-layer + trace files
    python3 bench/e2e/run.py --smoke               # tiny sizes, one rep
    python3 bench/e2e/run.py --repeat 5 --out base.json
    python3 bench/e2e/run.py compare base.json new.json

With --workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones, or with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Entry points and simulator phases that get their own share metrics.
ENTRIES = [
    "core.AmpcMsf", "core.AmpcConnectivity", "core.AmpcKCore", "core.AmpcMis",
    "core.AmpcMatching", "baselines.MpcBoruvkaMsf",
    "baselines.MpcLocalContractionCC", "baselines.MpcRootsetMis",
    "baselines.MpcRootsetMatching",
]
PHASES = ["PrimSearch", "PointerJump", "HIndex", "IsInMIS", "IsInMM", "Boruvka"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (until it has succeeded once) and builds the driver;
    returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "ampc_e2e"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("build failed:", " ".join(step))
            return None
    return build_dir / "ampc_e2e"


def run_driver(driver, args):
    """Runs the driver to completion; returns (exit code, parsed JSON)."""
    done = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


# ------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def counter(job, name):
    return job["counters"].get(name, 0)


def timer_sum(job, prefix):
    return sum(v for k, v in job["timers"].items() if k.startswith(prefix))


def rep_sum(rep, fn):
    return sum(fn(job) for job in rep["jobs"])


def rep_sim(rep):
    return rep_sum(rep, lambda j: j["sim_s"])


def comm_bytes(job):
    return sum(counter(job, k) for k in (
        "shuffle_bytes", "kv_read_bytes", "kv_write_bytes",
        "frontier_broadcast_bytes"))


def end_to_end(run):
    reps = [r for r in run["reps"] if not r["traced"]]
    warm = run["warm_up"]
    walls = [r["wall_s"] for r in reps]
    return {
        "wall_s": median(walls),
        "setup_s": median(run["setup_s"]),
        "sim_s": median([rep_sim(r) for r in reps]),
        "rounds": rep_sum(warm, lambda j: counter(j, "rounds")),
        "shuffles": rep_sum(warm, lambda j: counter(j, "shuffles")),
        "comm_mb": median([rep_sum(r, comm_bytes) / 1e6 for r in reps]),
        "peak_rss_mb": run["peak_rss_mb"],
        # Reported for people, kept out of BENCHMARK.json (it is 0 when
        # healthy); the JSON line carries attempted and failed instead.
        "error_rate": ratio(run["failed"], run["attempted"]),
        "wall_s.n": len(walls),
        "wall_s.min": min(walls),
        "wall_s.max": max(walls),
    }


def per_layer(run, probes):
    traced = [r for r in run["reps"] if r["traced"]]
    untraced = [r for r in run["reps"] if not r["traced"]]
    every = [run["warm_up"]] + run["reps"]
    machines = run["machines"]

    def med(fn):
        return median([fn(r) for r in traced])

    def total(name):
        return lambda r: rep_sum(r, lambda j: counter(j, name))

    def entry_share(entry, key, base):
        return lambda r: ratio(
            sum(j[key] for j in r["jobs"] if j["span"] == entry), base(r))

    def phase_share(phase, clock, base):
        return lambda r: ratio(
            rep_sum(r, lambda j: timer_sum(j, clock + ":" + phase)), base(r))

    def round_sims(r):
        return [s for j in r["jobs"] for s in j["round_sim"]]

    phases_wall = lambda r: rep_sum(r, lambda j: j["phases_wall_s"])
    sims = [rep_sim(r) for r in every]
    hits, misses = total("cache_hits"), total("cache_misses")
    metrics = {
        "graph.generate_s": median(run["generate_s"]),
        "graph.build_s": median(run["build_s"]),
        "core.wall_s": med(lambda r: rep_sum(r, lambda j: j["entry_s"])),
        "core.outside_phases_s": med(
            lambda r: rep_sum(r, lambda j: j["entry_s"] - j["phases_wall_s"])),
        "sim.cluster_s": med(lambda r: rep_sum(r, lambda j: j["cluster_s"])),
        "sim.phases_wall_s": med(phases_wall),
        "sim.host_ms_per_round": med(
            lambda r: 1e3 * ratio(phases_wall(r), total("rounds")(r))),
        "sim.round_sim_p50_s": med(lambda r: median(round_sims(r))),
        "sim.round_sim_max_s": med(lambda r: max(round_sims(r))),
        "sim.hot_read_skew": med(lambda r: ratio(
            machines * total("kv_hot_machine_read_bytes")(r),
            total("kv_read_bytes")(r))),
        "sim.sim_s_drift": ratio(max(sims) - min(sims), median(sims)),
        "kv.reads": med(total("kv_reads")),
        "kv.lookup_trips": med(total("kv_lookup_trips")),
        "kv.batches": med(total("kv_batches")),
        "kv.keys_per_trip": med(
            lambda r: ratio(total("kv_reads")(r), total("kv_lookup_trips")(r))),
        "kv.cache_probes": med(lambda r: hits(r) + misses(r)),
        "kv.cache_hit_ratio": med(
            lambda r: ratio(hits(r), hits(r) + misses(r))),
        "kv.peak_inflight_keys": med(lambda r: max(
            counter(j, "kv_peak_inflight_keys") for j in r["jobs"])),
        "kv.read_mb": med(total("kv_read_bytes")) / 1e6,
        "kv.write_mb": med(total("kv_write_bytes")) / 1e6,
        "frontier.dense_rounds": med(total("frontier_dense_rounds")),
        "frontier.sparse_rounds": med(total("frontier_sparse_rounds")),
        "frontier.exchange_mb": med(total("frontier_exchange_bytes")) / 1e6,
        "frontier.broadcast_mb": med(total("frontier_broadcast_bytes")) / 1e6,
        "mpc.shuffle_mb": med(total("shuffle_bytes")) / 1e6,
        "mpc.ms_per_shuffle": med(
            lambda r: 1e3 * ratio(phases_wall(r), total("shuffles")(r))),
        "common.parallelism": med(lambda r: ratio(r["cpu_s"], r["wall_s"])),
        "common.sort_probe_s": median(probes),
        "seq.oracle_s": sum(s["end_us"] - s["start_us"] for s in run["spans"]
                            if s["name"].startswith("seq.")) * 1e-6,
        "trace.overhead_rel": ratio(
            median([r["wall_s"] for r in traced]),
            median([r["wall_s"] for r in untraced])) - 1.0,
    }
    for entry in ENTRIES:
        metrics[entry + ".wall_share"] = med(
            entry_share(entry, "entry_s", lambda r: r["wall_s"]))
        metrics[entry + ".sim_share"] = med(
            entry_share(entry, "sim_s", rep_sim))
    for phase in PHASES:
        metrics["sim.phase." + phase + ".wall_share"] = med(
            phase_share(phase, "wall", phases_wall))
        metrics["sim.phase." + phase + ".sim_share"] = med(
            phase_share(phase, "sim", rep_sim))
    return metrics


# ------------------------------------------------------------- trace

def trace_events(run, probe_spans):
    """Trace-event JSON: a host track of spans, a simulated-clock track."""
    spans = probe_spans + run["spans"]
    origin = min(s["start_us"] for s in spans)
    events = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host"}},
        {"ph": "M", "pid": 2, "name": "process_name",
         "args": {"name": "simulated clock"}},
    ]
    for s in spans:
        events.append({"ph": "X", "pid": 1, "tid": 1, "name": s["name"],
                       "ts": s["start_us"] - origin,
                       "dur": s["end_us"] - s["start_us"],
                       "args": {"rep": s["rep"]}})
    for tid, rep in enumerate(r for r in [run["warm_up"]] + run["reps"]
                              if r["traced"]):
        events.append({"ph": "M", "pid": 2, "tid": tid, "name": "thread_name",
                       "args": {"name": rep["id"]}})
        clock = 0.0
        for job in rep["jobs"]:
            rounds = zip(job["round_sim"], job.get("rounds", []))
            for i, (sim, fp) in enumerate(rounds):
                traffic = [r + w for r, w in zip(fp["read"], fp["write"])]
                hottest = max(range(len(traffic)), key=traffic.__getitem__)
                events.append({
                    "ph": "X", "pid": 2, "tid": tid, "name": fp["phase"],
                    "ts": clock * 1e6, "dur": sim * 1e6,
                    "args": {"rep": rep["id"], "job": job["span"], "round": i,
                             "read_bytes": fp["read"],
                             "write_bytes": fp["write"],
                             "hottest_machine":
                                 hottest if traffic[hottest] else None}})
                clock += sim
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------- running

def run_workload(driver, workload, seed, seconds, traced, smoke, build_dir):
    """One workload in its own process; returns the result record."""
    size = ["--smoke"] if smoke else []
    probes, probe_spans = [], []

    def probe():
        code, out = run_driver(driver, ["--probe"] + size)
        if code != 0 or out is None:
            return False
        probes.append(out["sort_probe_s"])
        probe_spans.extend(out["spans"])
        return True

    if traced and not probe():
        return None
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + size + (["--trace"] if traced else [])
    code, run = run_driver(driver, args)
    if run is None or (traced and not probe()):
        return None
    record = {"workload": workload, "seed": seed, "trace": int(traced),
              "correct": code == 0 and run["failed"] == 0,
              "attempted": run["attempted"], "failed": run["failed"],
              "failures": run["failures"], "nodes": run["nodes"],
              "arcs": run["arcs"], "end_to_end": end_to_end(run)}
    if traced:
        record["per_layer"] = per_layer(run, probes)
        path = build_dir / f"trace_{workload}.json"
        path.write_text(json.dumps(trace_events(run, probe_spans)))
        record["trace_file"] = str(path)
    return record


def contract_line(record):
    """The JSON line BENCHMARK.json's consumers read."""
    group, values = (("per_layer", record["per_layer"]) if record["trace"]
                     else ("end_to_end", record["end_to_end"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[group]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_record(record):
    e2e = record["end_to_end"]
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['nodes']} nodes, {record['arcs']} arcs  "
          f"{'correct' if record['correct'] else 'WRONG'} "
          f"({record['failed']} of {record['attempted']} jobs failed)")
    for failure in record["failures"]:
        print("   failure:", failure)
    for m in SPEC["end_to_end"]:
        line = f"   {m['name']:<24} {e2e[m['name']]:>14.6g} {m['unit']}"
        if m["name"] == "wall_s":
            line += (f"   (median of n={e2e['wall_s.n']}, min "
                     f"{e2e['wall_s.min']:.4g}, max {e2e['wall_s.max']:.4g})")
        print(line)
    print(f"   {'error_rate':<24} {e2e['error_rate']:>14.6g} ratio")
    if record["trace"]:
        for m in SPEC["per_layer"]:
            print(f"   {m['name']:<40} {record['per_layer'][m['name']]:>14.6g} "
                  f"{m['unit']}")
        print("   trace:", record["trace_file"])


def measure(opts):
    build_dir = (ROOT / opts.build_dir).resolve()
    driver = build(build_dir)
    if driver is None:
        return 2
    workloads = [opts.workload] if opts.workload else WORKLOADS
    seconds = 0 if opts.smoke else opts.seconds
    records = []
    for i in range(opts.repeat):
        for workload in workloads:
            record = run_workload(driver, workload, opts.seed + i, seconds,
                                  opts.trace == 1, opts.smoke, build_dir)
            if record is None:
                log(f"{workload}: the driver produced no result")
                return 1
            print_record(record)
            print(contract_line(record), flush=True)
            records.append(record)
    if opts.out:
        Path(opts.out).write_text(json.dumps({"runs": records}, indent=1))
    return 0 if all(r["correct"] for r in records) else 1


# ------------------------------------------------------------- compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path, new_path):
    """Per workload and end-to-end metric: each side's median and quartiles,
    the bound, and a verdict."""
    base = json.loads(Path(base_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    header = (f"{'workload':<16} {'metric':<12} {'base q1/med/q3':>30} "
              f"{'new q1/med/q3':>30} {'change':>8} {'bound':>6}  verdict")
    print(header)
    worse = 0
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            a = [r["end_to_end"][m["name"]] for r in base
                 if r["workload"] == workload and not r["trace"]]
            b = [r["end_to_end"][m["name"]] for r in new
                 if r["workload"] == workload and not r["trace"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if m["better"] == "lower" else -1
            change = ratio(qb[1] - qa[1], qa[1])
            spread = ratio(qa[2] - qa[0], qa[1])
            if all(sign * (y - x) < 0 for x in a for y in b):
                verdict = "better"
            elif spread > m["bound"]:
                verdict = f"unresolved (base spread {spread:.3g} > bound)"
            elif sign * change > m["bound"]:
                verdict = "worse"
                worse += 1
            elif -sign * change > spread:
                verdict = "better"
            else:
                verdict = "within bound"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:<16} {m['name']:<12} {fmt(qa):>30} {fmt(qb):>30} "
                  f"{change:>+8.2%} {m['bound']:>6.3g}  {verdict}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare BASE.json NEW.json")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; --repeat uses seed, seed+1, ...")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of each workload's timed section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="traced run: per-layer metrics and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one rep")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the workloads this many times, interleaved")
    parser.add_argument("--out", help="write every result to this JSON file")
    parser.add_argument("--build-dir", default="build-e2e",
                        help="CMake build directory, relative to the repo root")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
