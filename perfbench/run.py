#!/usr/bin/env python3
"""End-to-end benchmark of serving and publishing (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_tiered --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Builds gdp_tool and the benchmark's
client (perfbench/client.cpp) into .bench_build/, generates the workload's
inputs from --seed, runs the shipped server as its own process, checks every
output, and prints one JSON result as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_results"
DBLP_EDGES = 6_384_117  # DblpFullScaleParams().num_edges
CONNECTIONS = 4
TENANT_EPS_CAP = 1e9
TENANT_DELTA_CAP = 0.5
SCHEDULE_PER_CONNECTION = 4096
# A serve window is never shorter than this share of --seconds.
MIN_WINDOW_SHARE = 0.08

# Why each workload exists is in README.md.  `serve_from` names the server
# the closed-loop phase runs against: the one started (and warmed) in setup,
# or the cold snapshot server of the last publish cycle.
WORKLOADS = {
    "serve_tiered": dict(edges=100_000, depth=9, threads=1, tiers=10,
                         tenants=40, mix=(8, 1, 1), wal=False, stream=False,
                         rounds=3, cycles_per_round=6, tail_pct=99, setup_repeats=5,
                         serve_from="setup",
                         probe_requests=200, probe_reps=3),
    "serve_durable": dict(edges=2_000, depth=6, threads=1, tiers=3,
                          tenants=64, mix=(1, 0, 0), wal=True, stream=False,
                          rounds=5, cycles_per_round=6, tail_pct=99, setup_repeats=7,
                          serve_from="setup",
                          probe_requests=400, probe_reps=5),
    "publish": dict(edges=2_000_000, depth=9, threads=4, tiers=10,
                    tenants=40, mix=(8, 1, 1), wal=False, stream=True,
                    rounds=3, cycles_per_round=2, tail_pct=90, setup_repeats=3,
                    serve_from="cold",
                    probe_requests=30, probe_reps=1),
}
KINDS = ("serve", "drilldown", "answer")

# Metric names and units are declared once, in BENCHMARK.json.
with open(ROOT / "BENCHMARK.json") as _f:
    _DECLARED = json.load(_f)
END_TO_END = [m["name"] for m in _DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in _DECLARED["per_layer"]]
UNITS = {m["name"]: m["unit"]
         for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}


class Run:
    """Process bookkeeping and the attempted/failed tally of one run."""

    def __init__(self, work):
        self.work = work
        self.procs = []
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def spawn(self, argv, log=None, **kw):
        """Start a process; with `log`, its output goes to that file."""
        if log is not None:
            with open(log, "w") as out:
                return self.spawn(argv, stdout=out, stderr=subprocess.STDOUT,
                                  **kw)
        proc = subprocess.Popen([str(a) for a in argv], **kw)
        self.procs.append(proc)
        return proc

    def stop(self, proc, timeout=60):
        """SIGTERM (the server drains and exits), then wait."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return proc.returncode

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(argv, log, timeout=170):
    with open(log, "w") as out:
        proc = subprocess.run([str(a) for a in argv], stdout=out,
                              stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, argv[:2]))} failed; see {log}:\n"
             + Path(log).read_text()[-2000:])


def build():
    """Configure once, then an incremental build of the two programs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT} (CMakeLists.txt and src/ are needed)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", ROOT / "perfbench", "-B", BUILD, *gen,
                     "-DCMAKE_BUILD_TYPE=Release"], log, timeout=600)
    run_checked(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                 "--target", "gdp_tool", "gdp_perfbench"], log, timeout=900)
    return BUILD / "gdp" / "gdp_tool", BUILD / "gdp_perfbench"


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_tenants(path, spec):
    """Tenants spread evenly over the tiers: tenant i has tier i mod tiers."""
    rows = []
    for i in range(spec["tenants"]):
        tier = i % spec["tiers"]
        rows.append((f"t{i:03d}", tier))
    with open(path, "w") as f:
        for tenant, tier in rows:
            f.write(f"{tenant} {TENANT_EPS_CAP:g} {TENANT_DELTA_CAP:g} {tier}\n")
    return rows


def write_schedule(path, seed, tenants, mix, num_left, num_right):
    """Per connection, a seeded sequence of (tenant, RPC kind, side, node)."""
    rng = random.Random(seed * 1_000_003 + 17)
    with open(path, "w") as f:
        for conn in range(CONNECTIONS):
            for _ in range(SCHEDULE_PER_CONNECTION):
                tenant, _tier = rng.choice(tenants)
                kind = rng.choices(KINDS, weights=mix)[0]
                side = rng.randrange(2)
                node = rng.randrange(num_left if side == 0 else num_right)
                f.write(f"{conn} {tenant} {kind} {side} {node}\n")


def graph_shape(path):
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                left, right = line.split()
                return int(left), int(right)
    fail(f"edge list {path} has no header")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def setup_once(run, tool, pb, name, spec, seed, last):
    """Inputs from the seed, then (serve_*) the server started and warmed.
    Returns (seconds, input digests, server process or None, warm-up).  The
    timed part is the dataset and tenants files, server start and warm-up."""
    w = run.work
    t0 = time.perf_counter()
    graph = w / "graph.tsv"
    scale = spec["edges"] / DBLP_EDGES
    gen = [tool, "generate", "--out", graph, "--scale", f"{scale:.9f}",
           "--seed", seed]
    if spec["stream"]:
        gen.append("--stream")
    run_checked(gen, w / "generate.log")
    tenants = write_tenants(w / "tenants.tsv", spec)
    server, warm = None, None
    if spec["serve_from"] == "setup":
        port_file = w / "setup.port"
        port_file.unlink(missing_ok=True)
        argv = [tool, "serve", "--graph", graph, "--tenants",
                w / "tenants.tsv", "--listen", 0, "--port-file", port_file,
                "--depth", spec["depth"], "--threads", spec["threads"],
                "--seed", seed]
        if spec["wal"]:
            (w / "audit.wal").unlink(missing_ok=True)
            argv += ["--wal", w / "audit.wal"]
        server = run.spawn(argv, log=w / "server.log")
        run_checked([pb, "warmup", "--port-file", port_file, "--tenants",
                     w / "tenants.tsv", "--out", w / "warmup.json"],
                    w / "warmup.log")
        warm = read_json(w / "warmup.json")
    seconds = time.perf_counter() - t0
    # The request schedule is the load generator's input, not the system's:
    # written outside the timed set-up.
    num_left, num_right = graph_shape(graph)
    write_schedule(w / "schedule.tsv", seed, tenants, spec["mix"], num_left,
                   num_right)
    digests = tuple(sha256(w / f) for f in
                    ("graph.tsv", "tenants.tsv", "schedule.tsv"))
    if server is not None and not last:
        run.check(run.stop(server) == 0, f"{name}: setup server exit")
        server = None
    return seconds, digests, server, warm


def publish_cycle(run, tool, pb, spec, seed, top_tenant, cycle, keep_server):
    """pack --compile --verify, then a cold `serve --snapshot` answering one
    top-tier Serve.  Returns the cycle's measurements."""
    w = run.work
    snap = w / "published.gdps"
    log = w / f"pack{cycle}.log"
    t0 = time.perf_counter()
    pack = run.spawn([tool, "pack", "--graph", w / "graph.tsv", "--out", snap,
                      "--compile", "--verify", "--depth", spec["depth"],
                      "--threads", spec["threads"], "--seed", seed], log=log)
    _, status, usage = os.wait4(pack.pid, 0)
    publish_s = time.perf_counter() - t0
    pack.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text()
    packed = re.search(r"(\d+) associations", text)
    if pack.returncode != 0 or "verify OK" not in text or not packed:
        fail(f"pack --compile --verify failed:\n{text[-2000:]}")
    run.check(True, "pack --verify")
    edges = int(packed.group(1))

    port_file = w / "cold.port"
    port_file.unlink(missing_ok=True)
    reply = w / f"first_reply{cycle}.bin"
    probe = run.spawn([pb, "first-serve", "--port-file", port_file,
                       "--tenant", top_tenant, "--reply", reply, "--out",
                       w / "first.json"], stdout=subprocess.PIPE, text=True)
    if probe.stdout.readline().strip() != "ready":
        fail("first-serve client did not start")
    t_spawn = time.monotonic_ns()
    server = run.spawn([tool, "serve", "--snapshot", snap, "--tenants",
                        w / "tenants.tsv", "--listen", 0, "--port-file",
                        port_file, "--depth", spec["depth"], "--threads",
                        spec["threads"], "--seed", seed],
                       log=w / f"cold{cycle}.log")
    if probe.wait(timeout=120) != 0:
        fail("first-serve client failed")
    first = read_json(w / "first.json")
    ok = run.check(first["ok"] == 1, f"cold first serve: {first['message']}")
    run.check(first["adoptions"] == 1,
              f"cold server adopted {first['adoptions']} snapshots, not 1")
    if not keep_server:
        run.check(run.stop(server) == 0, "cold server exit")
        server = None
    return dict(publish_s=publish_s,
                publish_peak_rss_mb=usage.ru_maxrss / 1024.0,
                cold_first_serve_ms=(first["reply_mono_ns"] - t_spawn) / 1e6,
                snapshot_bytes_per_edge=snap.stat().st_size / edges,
                reply=str(reply) if ok else None, server=server)


def audit_records(run, tool, wal):
    log = run.work / "audit.log"
    proc = subprocess.run([str(tool), "audit", "--verify", str(wal)],
                          capture_output=True, text=True, timeout=120)
    log.write_text(proc.stdout + proc.stderr)
    run.check(proc.returncode == 0 and "audit OK" in proc.stdout,
              f"audit --verify failed: {proc.stdout[-500:]}")
    m = re.search(r": (\d+) records", proc.stdout)
    return int(m.group(1)) if m else -1


def serve_windows(samples_path, load):
    """Per serve window: throughput of checked grants, their p50 latency and
    server CPU per completed RPC; plus every checked grant's latency (ms)."""
    granted = [[] for _ in load["win_s"]]
    with open(samples_path) as f:
        for line in f:
            window, _kind, outcome, us = line.split()
            if outcome == "0":
                granted[int(window)].append(float(us) / 1e3)
    parts = [dict(qps=load["win_granted"][i] / load["win_s"][i],
                  p50_ms=stats.percentile(ok, 50) if ok else 0.0,
                  server_cpu_ms_per_req=load["win_cpu_s"][i] * 1e3
                  / max(load["win_attempted"][i], 1),
                  samples=len(ok))
             for i, ok in enumerate(granted)]
    return parts, [ms for ok in granted for ms in ok]


def filesystem_type(path):
    """Type of the filesystem holding `path`, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    target = os.path.realpath(path)
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, right = line.split(" - ", 1)
                mount = left.split()[4]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def run_context(work):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines, src = 0, hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            data = path.read_bytes()
            src_lines += data.count(b"\n")
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return dict(nproc=os.cpu_count(), cpu_model=cpu,
                kernel=platform.release(),
                wal_fs=filesystem_type(work), build_type="Release",
                commit=commit, src_sha256=src.hexdigest()[:16],
                src_lines=src_lines, connections=CONNECTIONS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    name, spec, seed = args.workload, WORKLOADS[args.workload], args.seed
    traced = args.trace == 1

    tool, pb = build()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work)
    try:
        metrics, raw = measure(run, tool, pb, name, spec, seed, args.seconds,
                               traced)
        context = run_context(work)
    finally:
        run.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    for what in run.failures:
        print(f"FAILED CHECK: {what}")
    RESULTS.mkdir(exist_ok=True)
    record = dict(workload=name, seed=seed, seconds=args.seconds,
                  trace=args.trace, context=context, metrics=metrics, raw=raw,
                  attempted=run.attempted, failed=failed,
                  fail_ratio=stats.fail_ratio(failed, run.attempted))
    (RESULTS / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if traced:
        untraced = RESULTS / f"{name}-seed{seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]
            print(f"tracing overhead: p50 {metrics['trace.p50_ms'] - base['p50_ms']:+.4f} ms, "
                  f"qps {metrics['trace.qps'] - base['qps']:+.2f} "
                  f"(traced minus untraced run, seed {seed})")
    print("context: " + json.dumps(context))
    print(f"fail_ratio: {record['fail_ratio']:.6g} ({failed}/{run.attempted})")
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {UNITS[key]}")
    wanted = PER_LAYER if traced else END_TO_END
    selected = {k: {"value": metrics[k], "unit": UNITS[k]} for k in wanted}
    print(json.dumps(dict(correct=failed == 0, attempted=run.attempted,
                          failed=failed, metrics=selected)))


def measure(run, tool, pb, name, spec, seed, seconds, traced):
    w = run.work
    # --- setup, repeated; the last one stays up -------------------------
    setups, digests = [], set()
    server, warm = None, None
    repeats = spec["setup_repeats"]
    for i in range(repeats):
        took, digest, server, warm = setup_once(
            run, tool, pb, name, spec, seed, last=i == repeats - 1)
        setups.append(took)
        digests.add(digest)
    run.check(len(digests) == 1,
              "same seed produced different inputs or schedules across setups")
    if warm is not None:
        run.check(not warm["failures"], f"warm-up: {warm['failures'][:3]}")

    # --- timed window: rounds of publish cycles, each followed by a serve
    # window, so every metric samples the whole run ----------------------
    top_tenant = f"t{spec['tiers'] - 1:03d}"  # write_tenants' first top-tier tenant
    argv = [pb, "load", "--graph", w / "graph.tsv", "--depth", spec["depth"],
            "--threads", spec["threads"], "--seed", seed, "--tenants",
            w / "tenants.tsv", "--schedule", w / "schedule.tsv",
            "--connections", min(CONNECTIONS, os.cpu_count() or 1),
            "--out", w / "load.json", "--samples", w / "samples.tsv"]
    if traced:
        argv += ["--trace", w / "spans_load.jsonl", "--sequential", 200]
    with open(w / "load.log", "w") as load_log:
        client = run.spawn(argv, stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, stderr=load_log, text=True)

    def command(line):
        client.stdin.write(line + "\n")
        client.stdin.flush()
        if client.stdout.readline().strip() != "done":
            fail(f"load client failed on '{line}'; see {w / 'load.log'}")

    if client.stdout.readline().strip() != "ready":
        fail(f"load client did not start; see {w / 'load.log'}")
    rounds = spec["rounds"]
    window_start = time.perf_counter()
    cycles, serving_pids, cold = [], [], None
    publishing = 0.0  # seconds spent in publish cycles so far
    for r in range(rounds):
        round_start = time.perf_counter()
        if cold is not None:
            run.check(run.stop(cold) == 0, "cold server did not drain cleanly")
        for c in range(spec["cycles_per_round"]):
            keep = spec["serve_from"] == "cold" and c == spec["cycles_per_round"] - 1
            cycle = publish_cycle(run, tool, pb, spec, seed, top_tenant,
                                  len(cycles), keep)
            cycles.append(cycle)
            if cycle["reply"]:
                command(f"check {cycle['reply']}")
        if spec["serve_from"] == "cold":
            cold = server = cycles[-1]["server"]
        port_file = "setup.port" if spec["serve_from"] == "setup" else "cold.port"
        port = int((w / port_file).read_text())
        publishing += time.perf_counter() - round_start
        # Equal windows: leave room for the remaining rounds' publishing at
        # the rate measured so far.
        left = (seconds - (time.perf_counter() - window_start)
                - publishing / (r + 1) * (rounds - r - 1))
        length = max(left / (rounds - r), MIN_WINDOW_SHARE * seconds)
        command(f"window {port} {server.pid} {length:.3f}")
        serving_pids.append(server.pid)
    client.stdin.write("finish\n")
    client.stdin.close()
    if client.wait(timeout=170) != 0:
        fail(f"load client failed; see {w / 'load.log'}")
    load = read_json(w / "load.json")
    run.attempted += int(load["checks"] + load["failed"])
    run.failures += load["failures"][: int(load["failed"])]
    run.failures += ["(more load failures)"] * max(
        0, int(load["failed"]) - len(load["failures"]))
    run.check(run.stop(server) == 0, "serving server did not drain cleanly")

    if spec["wal"]:
        records = audit_records(run, tool, w / "audit.wal")
        # Each warm-up Serve is a tenant's first: one open and one grant.
        expected = 2 * warm["granted"] + load["server_granted_total"]
        run.check(records == expected,
                  f"WAL holds {records} records, expected {expected} "
                  f"(tenant opens + grants)")

    parts, latencies = serve_windows(w / "samples.tsv", load)
    median = statistics.median
    # Medians over the windows, so a few seconds of host slowdown move one
    # window, not the result; the tail pools every window's samples.
    serving = {k: median(p[k] for p in parts)
               for k in ("qps", "p50_ms", "server_cpu_ms_per_req")}
    tail = stats.tail(latencies, spec["tail_pct"]) if latencies else None
    run.check(tail is not None,
              f"fewer than {stats.MIN_BEYOND} of {len(latencies)} samples lie "
              f"beyond the p{spec['tail_pct']:g}")
    serving["p99_ms"] = tail or 0.0
    # VmHWM of each serving process when its last window ended: one server
    # on serve_*, a fresh cold server per round on publish.
    hwm = {pid: kb for pid, kb in zip(serving_pids, load["win_hwm_kb"])}
    metrics = {
        "setup_s": median(setups),
        **serving,
        "server_peak_rss_mb": median(hwm.values()) / 1024.0,
        "publish_s": median(c["publish_s"] for c in cycles),
        "publish_peak_rss_mb": median(c["publish_peak_rss_mb"] for c in cycles),
        "cold_first_serve_ms": median(c["cold_first_serve_ms"] for c in cycles),
        "snapshot_bytes_per_edge": median(c["snapshot_bytes_per_edge"] for c in cycles),
    }
    raw = dict(setups=setups, serve_windows=parts, cycles=[
                   {k: v for k, v in c.items() if k not in ("server", "reply")}
                   for c in cycles],
               mean_z2=load["mean_z2"], z_count=load["z_count"])
    print(f"{name}: {len(cycles)} publish cycles; {len(parts)} serve windows, "
          f"{len(latencies)} granted RPCs; p99_ms is the p{spec['tail_pct']:g}")

    if traced:
        probe_argv = [pb, "probe", "--graph", w / "graph.tsv", "--depth",
                      spec["depth"], "--threads", spec["threads"], "--seed",
                      seed, "--tenants", w / "tenants.tsv", "--schedule",
                      w / "schedule.tsv", "--requests", spec["probe_requests"],
                      "--reps", spec["probe_reps"], "--wal", int(spec["wal"]),
                      "--workdir", w, "--out",
                      w / "probe.json", "--trace", w / "spans_probe.jsonl"]
        run_checked(probe_argv, w / "probe.log")
        probe = read_json(w / "probe.json")
        run.check(probe["storage.verify_ok"] == 1,
                  "probe snapshot verify: columns differ")
        rtt = stats.percentile(load["seq_mix_us"], 50) / 1e3
        for key in PER_LAYER:
            if key in probe:
                metrics[key] = probe[key]
        metrics.update({
            "net.rtt_ms": rtt,
            "net.overhead_ms": rtt - probe["serve.service_ms"],
            "net.wait_ms": metrics["p50_ms"] - rtt,
            "net.response_kb": load["response_bytes_mean"] / 1024.0,
            "net.serve_rpc_p50_ms": stats.percentile(load["seq_serve_us"], 50) / 1e3,
            "net.drilldown_rpc_p50_ms": stats.percentile(load["seq_drilldown_us"], 50) / 1e3,
            "net.answer_rpc_p50_ms": stats.percentile(load["seq_answer_us"], 50) / 1e3,
            "net.rng_mutex_per_req": load["stats_rng_mutex"] / load["stats_requests_completed"],
            "net.queue_high_watermark": load["stats_queue_high_watermark"],
            "net.shed": load["stats_shed"],
            "trace.qps": metrics["qps"],
            "trace.p50_ms": metrics["p50_ms"],
        })
        spans = []
        for part in ("spans_load.jsonl", "spans_probe.jsonl"):
            spans += (w / part).read_text().splitlines()
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}-seed{seed}-spans.jsonl").write_text(
            "\n".join(spans) + "\n")
    return metrics, raw


if __name__ == "__main__":
    main()
