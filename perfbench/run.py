#!/usr/bin/env python3
"""The dlw benchmark: three workloads run as users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dlw checkout.  The first run builds dlwtool and
the traced replay from source into .bench_build (or $CARGO_TARGET_DIR).
Inputs are generated from --seed; the program under test only sees the
generated files.  --trace 0 measures the end-to-end metrics with the
commands themselves; --trace 1 adds the traced replay and reports the
per-layer metrics.  Every run checks every output against a reference
computed once per invocation.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
DLWTOOL = os.path.join(BUILD, "tools", "dlwtool")
REPLAY = os.path.join(BUILD, "perfbench_replay")

# Sizing, fixed here so every run of a workload does the same work.
# The overload trace mixes equal runs of requests from several seeded
# OLTP segments and re-times them as Poisson arrivals at exactly
# OVERLOAD_RATE.  With one generated trace, analyze cost swung by about
# 20% from seed to seed: the generator's arrivals are long-range
# dependent, and each seed's hot-spot layout moves the drive's service
# rate, which the saturated queue amplifies.
OVERLOAD = ["--class", "oltp", "--rate", "250", "--minutes", "4"]
OVERLOAD_SEGMENTS = 8
OVERLOAD_REQUESTS = 240000
OVERLOAD_RATE = 250                   # req/s; the drive serves about 180
FLEET = ["--preset", "mixed", "--rate", "60", "--drives", "64", "--minutes", "10"]
FLEET_THREADS = 2
POOL_TRACES = 16                      # 1-minute OLTP traces per run
POOL = ["--class", "oltp", "--rate", "240", "--minutes", "1"]
SESSION_RATE = 25.0                   # sessions/s: about a quarter of the closed-loop capacity
CLIENT_CONNECTIONS = 2
SESSION_TIMEOUT_S = 10.0
WARMUP_SESSIONS = 16
COMMAND_TIMEOUT_S = 150

# Metric names, units and bounds live in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 1, no JSON)."""


# ------------------------------------------------------------- helpers


def tail(values):
    """p99, or the highest percentile with at least 10 samples beyond it
    (nearest rank); the maximum when there are 10 samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1]
    return v[min(math.ceil(0.99 * n) - 1, n - 11)]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "dlwtool.cc"))):
        raise BenchError("no dlw sources (src/, tools/) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "dlwtool", "perfbench_replay"],
                   stdout=sys.stderr, check=True)


class Child:
    """One finished process under test: output, wall time and rusage."""

    def __init__(self, argv, rchar=False):
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        timer.start()
        err = []
        drain = threading.Thread(target=lambda: err.append(p.stderr.read()))
        drain.start()
        self.out = p.stdout.read()
        drain.join()
        # Keep the child a zombie long enough to read its I/O counters.
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        self.wall = time.perf_counter() - t0
        timer.cancel()
        self.rchar = 0
        if rchar:
            with open("/proc/%d/io" % p.pid) as f:
                self.rchar = int(f.readline().split()[1])
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        p.stdout.close()
        p.stderr.close()
        if self.wall >= COMMAND_TIMEOUT_S:
            raise BenchError("timed out: " + " ".join(argv))
        if self.rc != 0:
            log("exit", self.rc, "from", " ".join(argv), "\n",
                err[0].decode(errors="replace")[-2000:])


def dlwtool(*args, rchar=False):
    return Child([DLWTOOL] + [str(a) for a in args], rchar=rchar)


def must(child, what):
    if child.rc != 0:
        raise BenchError(what + " failed")
    return child


def timed_setup(prepare, repeats):
    """Median wall time of `repeats` runs of the set-up step."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        prepare()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


class Tally:
    """Operations attempted and failed, plus output-check verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def op(self, ok, mismatch=False):
        self.attempted += 1
        self.failed += not ok
        self.mismatches += mismatch


def measure_command(args, tally, cmd, reference, requests, setup):
    """Run the command back to back for --seconds, checking each output;
    the end-to-end metrics over those runs."""
    samples, runs = [], 0
    t0 = time.perf_counter()
    while runs == 0 or time.perf_counter() - t0 < args.seconds:
        runs += 1
        c = dlwtool(*cmd)
        ok = c.rc == 0 and c.out == reference
        tally.op(ok, mismatch=c.rc == 0 and not ok)
        if ok:
            samples.append(c)
    if not samples:
        raise BenchError("every %s run failed" % cmd[0])
    setup_s, setups = setup
    print("# samples: %d %s runs, %d set-ups, %d requests each"
          % (len(samples), cmd[0], setups, requests))
    walls = [c.wall for c in samples]
    return {
        "setup_s": setup_s,
        "req_per_s": statistics.median(requests / w for w in walls),
        "cpu_ns_per_req": statistics.median(c.cpu for c in samples) * 1e9 / requests,
        "session_p50_ms": statistics.median(walls) * 1e3,
        "session_p99_ms": tail(walls) * 1e3,
        "peak_rss_mb": statistics.median(c.rss_mb for c in samples),
    }


# ------------------------------------------------------------ workloads


def overload_trace(segments, path, rng):
    """Write the overload trace: OVERLOAD_REQUESTS requests, an equal run
    of consecutive requests from each generated segment, with seeded
    Poisson arrivals at exactly OVERLOAD_RATE."""
    per = OVERLOAD_REQUESTS // len(segments)
    records = []
    for seg in segments:
        with open(seg) as f:
            rows = f.read().splitlines()[2:]  # dlw-ms-v1 header, column names
        if len(rows) < per:
            raise BenchError("%s has fewer than %d requests" % (seg, per))
        records += [r.split(",", 1)[1] for r in rows[:per]]
    window = OVERLOAD_REQUESTS * 10**9 // OVERLOAD_RATE
    arrivals = sorted(rng.randrange(window) for _ in records)
    lines = ["# dlw-ms-v1,oltp-overload,0,%d" % window, "arrival_ns,lba,blocks,op"]
    lines += ["%d,%s" % (a, r) for a, r in zip(arrivals, records)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def analyze_overload(args, work, tally):
    rng = random.Random(args.seed)
    segments = [os.path.join(work, "segment%d.csv" % k)
                for k in range(OVERLOAD_SEGMENTS)]
    gens = [["generate"] + OVERLOAD + ["--seed", rng.randrange(1, 2**31),
                                       "--out", seg] for seg in segments]
    setup = timed_setup(lambda: [must(dlwtool(*g), "generate") for g in gens], 3)
    trace = os.path.join(work, "overload.csv")
    overload_trace(segments, trace, rng)
    requests = OVERLOAD_REQUESTS
    cmd = ["analyze", "--in", trace, "--drive", "enterprise",
           "--cache", "on", "--stream", "on"]
    reference = must(dlwtool(*cmd[:-1], "off"), "reference analyze").out

    if not args.trace:
        return measure_command(args, tally, cmd, reference, requests, setup)

    c = dlwtool(*cmd, rchar=True)
    ok = c.rc == 0 and c.out == reference
    tally.op(ok, mismatch=c.rc == 0 and not ok)
    expect = os.path.join(work, "analyze.out")
    with open(expect, "wb") as f:
        f.write(c.out)
    m = replays(tally, args.seconds, "analyze", "--in", trace, "--expect", expect)
    m["trace.read_bytes_per_input_byte"] = c.rchar / os.path.getsize(trace)
    return m


def fleet_mixed(args, work, tally):
    flags = FLEET + ["--seed", args.seed]
    # Nothing to generate: set-up is the command's own start-up.
    setup = timed_setup(lambda: must(dlwtool("help", "fleet"), "dlwtool help"), 9)
    reference = must(dlwtool("fleet", *flags, "--threads", 1),
                     "1-thread reference fleet").out
    requests = int(next(line.split()[1] for line in reference.decode().splitlines()
                        if line.startswith("requests ")))
    cmd = ["fleet"] + flags + ["--threads", FLEET_THREADS]

    if not args.trace:
        return measure_command(args, tally, cmd, reference, requests, setup)

    expect = os.path.join(work, "fleet.out")
    with open(expect, "wb") as f:
        f.write(reference)
    return replays(tally, args.seconds, "fleet", *flags,
                   "--threads", FLEET_THREADS, "--expect", expect)


def replays(tally, seconds, *argv):
    """Traced replays, back to back for `seconds` (at least one); the
    median of each metric."""
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        c = Child([REPLAY] + [str(a) for a in argv])
        if c.rc != 0:
            tally.op(False)
            raise BenchError("traced replay failed")
        r = json.loads(c.out.decode().splitlines()[-1])
        tally.op(r["mismatches"] == 0, mismatch=r["mismatches"] != 0)
        runs.append(r)
    return {k: statistics.median(r[k] for r in runs)
            for k in runs[0] if k != "mismatches"}


# --------------------------------------------------------- daemon-open


class Daemon:
    """A `dlwtool serve` child, up once it has written its port file."""

    def __init__(self, work):
        port_file = os.path.join(work, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.proc = subprocess.Popen(
            [DLWTOOL, "serve", "--port", "0", "--port-file", port_file,
             "--threads", "1", "--qos", "off"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.perf_counter() + 10
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("dlwd did not start")
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
            except FileNotFoundError:
                pass
            if self.port is None:
                time.sleep(0.0005)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Session:
    """One scheduled stream: due time and the client-side timings."""

    def __init__(self, due, trace):
        self.due = due
        self.trace = trace
        self.ok = False
        self.refused = False
        self.mismatch = False
        self.start = self.ack = self.sent = self.done = None


def stream_session(port, s, payload, reference):
    """connect, hello, payload, half-close, report; timings on `s`."""
    fmt = "bin" if s.trace.endswith(".bin") else "csv"
    s.start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SESSION_TIMEOUT_S) as sock:
        sock.sendall(("DLWS1 %s anon\n" % fmt).encode())
        rd = sock.makefile("rb")
        ack = rd.readline().decode().split()
        s.ack = time.perf_counter()
        if ack[:2] != ["DLWS1", "ok"]:
            s.refused = True
            return
        sock.sendall(payload)
        s.sent = time.perf_counter()
        sock.shutdown(socket.SHUT_WR)
        head = rd.readline().decode().split()
        if head[:2] != ["DLWR1", "ok"]:
            s.refused = True
            return
        report = rd.read(int(head[2]))
        s.done = time.perf_counter()
    s.mismatch = report != reference
    s.ok = not s.mismatch


def run_sessions(port, sessions, payloads, references, t0):
    """Open loop: each session starts at its due time, or as soon as one
    of the client connections frees up after it."""
    lock = threading.Lock()
    queue = iter(sessions)

    def worker():
        while True:
            with lock:
                s = next(queue, None)
            if s is None:
                return
            delay = t0 + s.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                stream_session(port, s, payloads[s.trace], references[s.trace])
            except (OSError, ValueError, IndexError) as e:
                log("session failed:", e)

    threads = [threading.Thread(target=worker) for _ in range(CLIENT_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def wire_payload(data, binary):
    """What `dlwtool stream` sends: csv raw, bin in 64 KiB frames."""
    if not binary:
        return data
    out = bytearray()
    for off in range(0, len(data), 65536):
        chunk = data[off:off + 65536]
        out += len(chunk).to_bytes(4, "little") + chunk
    return bytes(out + b"\0\0\0\0")


def daemon_open(args, work, tally):
    rng = random.Random(args.seed)
    seeds = [rng.randrange(1, 2**31) for _ in range(POOL_TRACES)]
    files = []
    for j, seed in enumerate(seeds):
        base = os.path.join(work, "pool%d" % j)
        files += [base + ".csv", base + ".bin"]
    daemons = []

    records = {}

    def prepare():
        for j, seed in enumerate(seeds):
            csv, bin_ = files[2 * j], files[2 * j + 1]
            gen = must(dlwtool("generate", *POOL, "--seed", seed, "--out", csv),
                       "generate")
            records[csv] = records[bin_] = int(gen.out.split()[1])
            must(dlwtool("convert", "--in", csv, "--out", bin_), "convert")
        if daemons:
            daemons.pop().stop()
        daemons.append(Daemon(work))

    try:
        setup_s, setups = timed_setup(prepare, 3)
        daemon = daemons[0]
        references, payloads = {}, {}
        for f in files:
            references[f] = must(dlwtool("characterize", "--in", f), "characterize").out
            with open(f, "rb") as fh:
                payloads[f] = wire_payload(fh.read(), f.endswith(".bin"))

        # Warm-up, closed loop, not counted.
        warm = [Session(0.0, files[i % len(files)]) for i in range(WARMUP_SESSIONS)]
        run_sessions(daemon.port, warm, payloads, references, time.perf_counter())

        # Seeded Poisson arrivals, conditioned on their count so every
        # run serves the same number of sessions.  Sessions walk the
        # pool in order, alternating csv and bin.
        count = int(SESSION_RATE * args.seconds)
        dues = sorted(rng.uniform(0, args.seconds) for _ in range(count))
        sessions = [Session(due, files[2 * (i // 2 % POOL_TRACES) + i % 2])
                    for i, due in enumerate(dues)]
        cpu0 = daemon.cpu_s()
        t0 = time.perf_counter()
        run_sessions(daemon.port, sessions, payloads, references, t0)
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        alive = daemon.proc.poll() is None
    finally:
        for d in daemons:
            d.stop()
    if not alive or daemon.proc.returncode != 0:
        raise BenchError("dlwd did not drain cleanly")

    for s in sessions:
        tally.op(s.ok, mismatch=s.mismatch)
    done = [s for s in sessions if s.ok]
    if not done:
        raise BenchError("no session succeeded")
    latency = [s.done - t0 - s.due for s in done]
    served = sum(records[s.trace] for s in done)
    print("# samples: %d sessions (%d ok), %d set-ups, %d records served"
          % (len(sessions), len(done), setups, served))

    if not args.trace:
        return {
            "setup_s": setup_s,
            "req_per_s": statistics.median(records[s.trace] / l
                                           for s, l in zip(done, latency)),
            "cpu_ns_per_req": cpu * 1e9 / served,
            "session_p50_ms": statistics.median(latency) * 1e3,
            "session_p99_ms": tail(latency) * 1e3,
            "peak_rss_mb": rss,
        }

    started = [s for s in sessions if s.start is not None]
    m = {
        "net.connect_ack_ms": statistics.median(s.ack - s.start for s in done) * 1e3,
        "net.send_ms": statistics.median(s.sent - s.ack for s in done) * 1e3,
        "daemon.report_wait_ms": statistics.median(s.done - s.sent for s in done) * 1e3,
        "daemon.refused": sum(s.refused for s in sessions),
        "loadgen.late_p99_ms": tail([max(0.0, s.start - t0 - s.due)
                                     for s in started]) * 1e3,
    }
    ref_args = []
    for f in files:
        ref = f + ".ref"
        with open(ref, "wb") as fh:
            fh.write(references[f])
        ref_args += ["--in", f, "--expect", ref]
    # The load above already took --seconds: one replay.
    m.update(replays(tally, 0, "session", *ref_args))
    return m


WORKLOADS = {
    "analyze-overload": analyze_overload,
    "fleet-mixed": fleet_mixed,
    "daemon-open": daemon_open,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.seed %= 2**31
    # Unwind on SIGTERM too, so the finally blocks stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        build()
        os.makedirs(work)
        tally = Tally()
        measured = WORKLOADS[args.workload](args, work, tally)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error:", e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still has its inputs there

    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": tally.mismatches == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
