#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the campaign service.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
daemon, its shard worker and the per-layer tool into .bench_build/; later
runs only check the build. One client process drives ao_campaignd over a
unix socket in a closed loop: one connection, and the next request is sent
only after the previous reply has ended. Every campaign, replay, follow and
query is checked as a record *set* (stream order varies between runs); a
failed check exits non-zero without printing a result.

The last stdout line is one JSON result. With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer ones: client spans around
each protocol exchange, the daemon's `stats` counters, and perfbench_layers'
timings of each module's public functions on this workload's inputs. The
traced run also writes its spans to .bench_build/traces/. perfbench/README.md
describes the workloads and which end-to-end metric each layer metric moves.
"""

import argparse
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
from benchlib import CheckError  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
BIN = os.path.join(BUILD, "repo")
LAYERS = os.path.join(BUILD, "perfbench_layers")
TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")
REPLY_TIMEOUT_S = 120.0
# Daemon start-ups per run, made back to back before the warm-up; setup_s is
# their median (one start-up on an empty store takes a few milliseconds, too
# short to gate on its own).
SETUP_SAMPLES = 21
# Fresh warm-read daemons whose peak RSS after one replay gives peak_rss_mib.
RSS_SAMPLES = 9

CHIPS = "m1,m2,m3,m4"
IMPLS = ",".join(benchlib.IMPLS)
PAPER_SIZES = ",".join(str(1 << k) for k in range(5, 14))  # 32 .. 8192
FILL_CAMPAIGNS = 10   # warm-read store: ~24k entries, ~6x the default LRU
WARMUP_S = 2.0
COMMON_KINDS = ("gemm-measure", "precision-study", "fp64-emulation",
                "sme-gemm")
COUNTERS = ("hits", "executed", "plan-hits", "plan-misses", "merged",
            "store-entries", "shard-retries", "queries", "query-records",
            "follows", "stale-cursors")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class ReplyError(Exception):
    """The daemon answered an operation with an `error` reply."""


# ------------------------------------------------------------------ build ---

def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")):
        raise SystemExit("perfbench: no CMakeLists.txt at the repository "
                         "root; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "ao_campaignd", "ao_worker", "perfbench_layers"],
                   check=True, **quiet)


def layers_tool(*args):
    """Runs perfbench_layers; returns its stdout."""
    proc = subprocess.run([LAYERS, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise CheckError("perfbench_layers %s failed: %s" % (
            args[0], proc.stderr.strip()))
    return proc.stdout


# ----------------------------------------------------------------- client ---

class Spans:
    """Client-side spans, kept in memory and written out at the end. Spans
    of one campaign share its root span's id as their trace id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.items = []
        self.origin = time.perf_counter()

    def add(self, name, start, end, parent=None, trace=None, **attrs):
        if not self.enabled:
            return None
        span_id = len(self.items) + 1
        self.items.append({"id": span_id, "parent": parent,
                           "trace": trace or span_id, "name": name,
                           "start_us": round((start - self.origin) * 1e6, 1),
                           "dur_us": round((end - start) * 1e6, 1), **attrs})
        return span_id

    def durations_ms(self, name):
        return [s["dur_us"] / 1000.0 for s in self.items if s["name"] == name]


class Daemon:
    """One ao_campaignd process and the benchmark's single connection.

    setup_s is spawn -> first `pong`: process start, store load and the
    store index rebuild when a store is attached."""

    def __init__(self, rundir, store=None):
        args = [os.path.join(BIN, "ao_campaignd"), "--socket", "d.sock",
                "--shard-dir", "shards"]
        if store:
            args += ["--store", store]
        os.makedirs(os.path.join(rundir, "shards"), exist_ok=True)
        sock_path = os.path.join(rundir, "d.sock")
        if os.path.exists(sock_path):
            os.remove(sock_path)
        # A relative path keeps deep checkouts under the sun_path limit.
        connect_path = os.path.relpath(sock_path)
        self.sock = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=rundir,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            while self.sock is None:
                if self.proc.poll() is not None:
                    raise CheckError("daemon exited during start-up")
                if time.perf_counter() - start > 60:
                    raise CheckError("daemon never accepted a connection")
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.connect(connect_path)
                    self.sock = sock
                except OSError:
                    sock.close()
                    time.sleep(0.0005)
            self.sock.settimeout(REPLY_TIMEOUT_S)
            self.reader = self.sock.makefile("r", encoding="ascii",
                                             newline="\n")
            self.send(["ping"])
            if self.readline() != "pong":
                raise CheckError("daemon did not answer ping")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def send(self, lines):
        self.sock.sendall(("\n".join(lines) + "\n").encode("ascii"))

    def readline(self):
        try:
            line = self.reader.readline()
        except socket.timeout:
            raise ReplyError("no reply within %d s" % REPLY_TIMEOUT_S)
        if not line:
            raise CheckError("daemon closed the connection")
        return line.rstrip("\n")

    def cpu_ms(self):
        """Daemon CPU time, children (local shard workers) included."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            return benchlib.parse_proc_stat_cpu(f.read()) * TICK_MS

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            return benchlib.parse_vm_hwm_kib(f.read()) / 1024.0

    def command(self, line, last):
        """Sends one command and reads until `last(reply)` is true."""
        self.send([line])
        lines = []
        while True:
            reply = self.readline()
            if reply.startswith("error "):
                raise ReplyError("%r answered %s" % (line, reply))
            lines.append(reply)
            if last(reply):
                return lines

    def stats(self):
        lines = self.command("stats", lambda l: l.startswith("stats "))
        return benchlib.parse_stats(lines[-1])

    def close(self):
        """Asks the daemon to shut down and waits until it has exited."""
        if self.sock is not None:
            try:
                self.send(["shutdown"])
                self.readline()
            except (OSError, CheckError, ReplyError):
                pass
            self.sock.close()
            self.sock = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def follow(daemon, name):
    lines = daemon.command("follow " + name,
                           lambda l: l.startswith("follow campaign "))
    return benchlib.parse_follow(lines)


def traverse(daemon, filt, limit):
    """A whole filtered, cursor-chained paged traversal; returns its
    entries in reply order."""
    words = ["query"] + ["%s %s" % kv for kv in sorted(filt.items())]
    base = " ".join(words + ["limit %d" % limit])
    entries, cursor = [], None
    while True:
        line = base if cursor is None else base + " cursor " + cursor
        page, trailer = benchlib.parse_query_page(
            daemon.command(line, lambda l: l.startswith("query-page ")))
        entries.extend(page)
        if trailer["cursor"] == "end":
            return entries
        cursor = trailer["cursor"]


class Store:
    """The records a daemon's store must hold, for checking traversals."""

    def __init__(self):
        self.latest = {}

    def add(self, records):
        for entry in records:
            self.latest[benchlib.entry_key(entry)] = entry

    def select(self, filt):
        return [e for k, e in self.latest.items()
                if benchlib.key_matches(k, filt)]


def store_lines_per_key(path):
    lines, keys = 0, set()
    with open(path) as f:
        for line in f:
            if line.startswith("entry "):
                lines += 1
                keys.add(benchlib.entry_key(line.rstrip("\n")))
    return lines / max(1, len(keys))


# -------------------------------------------------------------- requests ---

def sweep_request(name, rng):
    """The paper's Figures 1-4 request with fresh seeds for every seeded
    family."""
    seeds = [rng.randrange(1, 1 << 31) for _ in range(4)]
    return ["begin " + name, "chips " + CHIPS, "impls " + IMPLS,
            "sizes " + PAPER_SIZES, "repetitions 5", "seed %d" % seeds[0],
            "stream 1,2,4,8", "gpu-stream", "precision 256 %d" % seeds[1],
            "ane 256", "fp64emu 128 %d" % seeds[2], "sme 256 %d" % seeds[3],
            "power", "workers 2", "run"]


def fanout_request(name, rng, shards):
    """~2,400 model-only GEMM records over 100 seeded sizes of at most 256
    plus seeded precision / FP64-emulation / SME points. Small sizes keep
    execute (operand-batch page faults included) a small share of the
    campaign, so the service and store layers do most of the work."""
    sizes = sorted(rng.sample(range(16, 257), 100))
    seeds = [rng.randrange(1, 1 << 31) for _ in range(4)]
    parallel = "shards %d" % shards if shards > 1 else "workers 2"
    return ["begin " + name, "chips " + CHIPS, "impls " + IMPLS,
            "sizes " + ",".join(map(str, sizes)), "repetitions 3",
            "functional-max 0", "seed %d" % seeds[0],
            "precision 48 %d" % seeds[1], "fp64emu 32 %d" % seeds[2],
            "sme 64 %d" % seeds[3], parallel, "run"]


# ------------------------------------------------------------------ runs ---

class Run:
    """One benchmark run: its inputs, samples, counters and checks."""

    def __init__(self, args, rundir):
        self.args = args
        self.rundir = rundir
        self.rng = random.Random(args.seed)
        self.spans = Spans(args.trace)
        self.samples = {k: [] for k in ("setup_s", "campaign_ms",
                                        "first_record_ms", "query_ms",
                                        "scan_ms", "follow_ms", "rss")}
        self.traced_campaign_ms = []
        self.untraced_campaign_ms = []
        self.records = 0
        self.campaign_s = 0.0
        self.cpu_ms = 0.0
        self.attempted = 0
        self.failed = 0
        self.timed = False        # inside the measured closed loop
        self.warm_until = self.deadline = None
        self.totals = {}          # end-of-run `stats` counters, all daemons
        self.warm_counters = None  # `stats` after set-up + warm-up
        self.reference = None     # (request, records) checked in-process
        self.layer_store = None   # store file perfbench_layers reads
        self.lines_per_key = None
        self.streamed = []        # every campaign record, digest-checked

    # -- operations ----------------------------------------------------------

    def op(self, name, sample, fn, *fn_args):
        """One closed-loop operation, timed; error replies count as failed
        operations instead of ending the run."""
        self.attempted += self.timed
        start = time.perf_counter()
        try:
            result = fn(*fn_args)
        except ReplyError as e:
            self.failed += self.timed
            log("failed operation: %s" % e)
            return None
        end = time.perf_counter()
        self.spans.add("client." + name, start, end)
        if self.timed and sample:
            self.samples[sample].append((end - start) * 1000.0)
        return result

    def campaign(self, daemon, request):
        """Submits one request block, reads its stream to the done line and
        runs the stream's own checks. Returns the sorted records, or None
        after an error reply."""
        self.attempted += self.timed
        trace = self.spans.enabled and len(self.samples["campaign_ms"]) % 2
        t_submit = time.perf_counter()
        daemon.send(request)
        seen = {}
        shard_start, shard_done = {}, {}
        lines = []
        while True:
            try:
                line = daemon.readline()
            except ReplyError as e:
                raise CheckError("campaign stalled: %s" % e)
            now = time.perf_counter()
            lines.append(line)
            if line.startswith("record "):
                seen.setdefault("record", now)
            elif line.startswith("shard "):
                words = line.split()
                if words[2] == "start":
                    shard_start[words[1]] = now
                elif words[2] == "done":
                    shard_done[words[1]] = now
            elif line.startswith("done campaign ") or line.startswith(
                    "error "):
                break
            else:
                seen.setdefault(line.split(" ", 1)[0], now)
        if lines[-1].startswith("error "):
            self.failed += self.timed
            log("failed campaign: %s" % lines[-1])
            return None
        t_done = time.perf_counter()
        parsed = benchlib.parse_campaign(lines)
        records = benchlib.check_campaign(parsed)
        if not records:
            raise CheckError("campaign streamed no records")
        self.streamed.extend(records)
        elapsed_ms = (t_done - t_submit) * 1000.0
        if trace:
            root = self.spans.add("client.campaign", t_submit, t_done,
                                  records=len(records))
            self.spans.add("service.admit_wait", seen["ok"], seen["started"],
                           root, root)
            for index, start in shard_start.items():
                self.spans.add("service.shard", start, shard_done[index],
                               root, root, shard=index)
            if shard_done:
                self.spans.add("service.merge_tail",
                               max(shard_done.values()), t_done, root, root)
        if self.timed:
            self.samples["campaign_ms"].append(elapsed_ms)
            self.samples["first_record_ms"].append(
                (seen["record"] - t_submit) * 1000.0)
            (self.traced_campaign_ms if trace
             else self.untraced_campaign_ms).append(elapsed_ms)
            self.records += len(records)
            self.campaign_s += t_done - t_submit
        return records

    def read_back(self, daemon, name, records, store, filters, scan):
        """Follows a finished campaign and pages through the store the way
        a user reads results back, checking every reply as a set."""
        followed = self.op("follow", "follow_ms", follow, daemon, name)
        if followed is not None:
            benchlib.check_same_set(followed, records, "follow " + name)
        for filt, limit in filters:
            got = self.op("query", "query_ms", traverse, daemon, filt, limit)
            if got is not None:
                benchlib.check_same_set(got, store.select(filt),
                                        "query %s" % filt)
        if scan:
            filt, limit = scan
            got = self.op("scan", "scan_ms", traverse, daemon, filt, limit)
            if got is not None:
                benchlib.check_same_set(got, store.select(filt),
                                        "scan %s" % filt)

    def scrape(self, daemon):
        """`stats` + `metrics`, as a monitoring agent polls them."""
        start = time.perf_counter()
        counters = daemon.stats()
        daemon.command("metrics", lambda l: l == "# EOF")
        self.spans.add("service.scrape", start, time.perf_counter())
        return counters

    def next_operation(self, index):
        """Closed-loop control shared by the workloads: False once the timed
        phase is over. Operation 0 and whatever else starts within WARMUP_S
        of it are warm-up; the first operations after a run starts (or after
        the previous run's processes exit) are slower than the rest."""
        now = time.perf_counter()
        if index == 0:
            self.warm_until = now + WARMUP_S
        elif not self.timed and now >= self.warm_until:
            self.timed = True
            self.deadline = now + self.args.seconds
        elif self.timed and now >= self.deadline:
            self.timed = False
            return False
        return True

    def setup_samples(self, count, store=None):
        for _ in range(count):
            daemon = Daemon(self.rundir, store=store)
            self.samples["setup_s"].append(daemon.setup_s)
            daemon.close()

    def finish_daemon(self, daemon, cpu0):
        """Folds one daemon's timed CPU and its counters into the run."""
        self.cpu_ms += daemon.cpu_ms() - cpu0
        for k, v in daemon.stats().items():
            self.totals[k] = self.totals.get(k, 0) + v

    def path(self, name):
        return os.path.join(self.rundir, name)


# ------------------------------------------------------------- workloads ---
#
# Each workload is an untimed set-up, untimed warm-up operations (the
# daemon's counters after the first are the per-layer `stats.*` counts, which
# a second fresh daemon must reproduce for the same seed), then the closed
# loop for --seconds.

def chip_filters(kind, limit):
    return [({"kind": kind, "chip": c}, limit) for c in benchlib.CHIPS]


def cold_loop(run, make_request, read_back, stop_after_warmup):
    """Campaigns on a fresh daemon and store each, so nothing is ever served
    from a cache and every campaign, read-back and peak RSS covers the same
    amount of work."""
    if not stop_after_warmup:
        run.setup_samples(SETUP_SAMPLES, store="setup.aocache")
    index = 0
    while run.next_operation(index):
        timed = run.timed
        name = "%s-%d" % (run.args.workload, index)
        store = name + ".aocache"
        request = make_request(name, run.rng)
        daemon = Daemon(run.rundir, store=store)
        try:
            cpu0 = daemon.cpu_ms()
            records = run.campaign(daemon, request)
            if records is not None:
                held = Store()
                held.add(records)
                run.read_back(daemon, name, records, held, *read_back)
            counters = run.scrape(daemon)
            if timed:
                run.finish_daemon(daemon, cpu0)
                run.samples["rss"].append(daemon.peak_rss_mib())
        finally:
            daemon.close()
        if index == 0:
            run.warm_counters = counters
            if stop_after_warmup:
                return
        if timed and run.reference is None and records is not None:
            run.reference = (request, records)
            run.layer_store = run.path(store)
            run.lines_per_key = store_lines_per_key(run.layer_store)
        else:
            os.remove(run.path(store))
        index += 1


def paper_sweep(run, stop_after_warmup=False):
    """The paper's Figures 1-4 request, cold."""
    cold_loop(run, sweep_request,
              (chip_filters("gemm-measure", 16), ({}, 64)),
              stop_after_warmup)


def shard_fanout(run, stop_after_warmup=False):
    """Cold `shards 2` campaigns on the daemon's local worker processes,
    written through to the daemon's store."""
    cold_loop(run, lambda name, rng: fanout_request(name, rng, shards=2),
              (chip_filters("gemm-measure", 64), ({}, 256)),
              stop_after_warmup)


def replay_order(rng, count):
    """Endless seeded shuffles of range(count), never the same campaign
    twice in a row: every replay then finds the LRU full of other campaigns'
    records, so each seed sees the same hit/miss mix. The store load leaves
    its newest entries, the last two fill campaigns, in the LRU, so the
    first replay is of another one and misses like the rest."""
    avoid = {count - 2, count - 1}
    while True:
        order = list(range(count))
        rng.shuffle(order)
        if order[0] in avoid:
            swap = next(i for i, c in enumerate(order) if c not in avoid)
            order[0], order[swap] = order[swap], order[0]
        avoid = {order[-1]}
        yield from order


def rss_samples(run, fills):
    """peak_rss_mib of warm-read: VmHWM after the store attach and one
    replay, on RSS_SAMPLES daemons each started on a fresh copy of the
    filled store and replaying one of the first fill campaigns (the load
    leaves only the last two in the LRU, so each replay misses). One
    daemon's mark moves by a few percent with thread timing. The timed
    daemon's own keeps growing with every replay (about 1 MiB each), so its
    mark would depend on how many replays fit in the run; it is only
    logged."""
    probe = run.path("rss.aocache")
    for request, fill_records in fills[:RSS_SAMPLES]:
        shutil.copyfile(run.path("fill.aocache"), probe)
        daemon = Daemon(run.rundir, store="rss.aocache")
        try:
            records = run.campaign(daemon, request)
            if records is None:
                raise CheckError("replay failed on a fresh daemon")
            benchlib.check_same_set(records, fill_records,
                                    "replay " + request[0].split()[1])
            run.samples["rss"].append(daemon.peak_rss_mib())
        finally:
            daemon.close()
    os.remove(probe)


def warm_read(run, stop_after_warmup=False):
    """Replays, follows and paged queries against a store ~6x larger than
    the daemon's LRU, after an untimed fill."""
    store = "warm.aocache"
    held = Store()
    fills = []
    daemon = Daemon(run.rundir, store=store)
    try:
        for k in range(FILL_CAMPAIGNS):
            request = fanout_request("fill-%d" % k, run.rng, shards=1)
            records = run.campaign(daemon, request)
            if records is None:
                raise CheckError("fill campaign failed")
            fills.append((request, records))
            held.add(records)
    finally:
        daemon.close()
    if not stop_after_warmup:
        shutil.copyfile(run.path(store), run.path("fill.aocache"))
        run.layer_store = run.path("fill.aocache")
        run.reference = fills[0]
        run.setup_samples(SETUP_SAMPLES, store=store)
        rss_samples(run, fills)
    order = replay_order(run.rng, FILL_CAMPAIGNS)
    daemon = Daemon(run.rundir, store=store)
    try:
        index = 0
        cpu0 = None
        while run.next_operation(index):
            if run.timed and cpu0 is None:
                cpu0 = daemon.cpu_ms()
            request, fill_records = fills[next(order)]
            name = request[0].split()[1]
            filt = {"chip": run.rng.choice(benchlib.CHIPS),
                    "impl": run.rng.choice(benchlib.IMPLS)}
            scan = ({}, 512) if index % 4 == 0 else None
            records = run.campaign(daemon, request)
            if records is not None:
                benchlib.check_same_set(records, fill_records,
                                        "replay " + name)
                run.read_back(daemon, name, records, held, [(filt, 64)],
                              scan)
            counters = run.scrape(daemon)
            if index == 0:
                run.warm_counters = counters
                if stop_after_warmup:
                    return
            index += 1
        run.finish_daemon(daemon, cpu0)
        log("warm-read daemon VmHWM after %d replays: %.1f MiB" % (
            index, daemon.peak_rss_mib()))
    finally:
        daemon.close()
    run.lines_per_key = store_lines_per_key(run.path(store))


WORKLOADS = {"paper-sweep": paper_sweep, "shard-fanout": shard_fanout,
             "warm-read": warm_read}


# --------------------------------------------------------------- metrics ---

def end_to_end(run):
    """The gated metrics. Each is a cost the program itself pays -- CPU
    time, memory, start-up -- rather than a wait: on a shared VM the median
    wall time of a shard-fanout campaign lands in one of two modes run by
    run (~95-130 ms or ~160-185 ms, even with no host steal, for the same
    CPU time per record), so wall-clock numbers are reported by wall_clock()
    below without a bound."""
    s = run.samples
    if not s["campaign_ms"] or run.records == 0:
        raise CheckError("no campaign completed in the timed phase")
    return {
        "setup_s": (benchlib.median(s["setup_s"]), "s"),
        "cpu_ms_per_record": (run.cpu_ms / run.records, "ms"),
        "peak_rss_mib": (benchlib.median(s["rss"]), "MiB"),
    }


def wall_clock(run):
    """What the client waits for: campaign, first-record and read-path
    latencies and streaming throughput. Per-layer numbers of the client's
    view, not gated ones: they move between runs far beyond any bound."""
    s = run.samples
    return {"client.campaign_p50_ms": benchlib.median(s["campaign_ms"]),
            "client.first_record_p50_ms": benchlib.median(
                s["first_record_ms"]),
            "client.records_per_s": run.records / run.campaign_s,
            "service.query_p50_ms": benchlib.median(s["query_ms"]),
            "service.scan_p50_ms": benchlib.median(s["scan_ms"]),
            "service.follow_p50_ms": benchlib.median(s["follow_ms"])}


def unit_of(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_us") or name.endswith("_us_per_job"):
        return "us"
    if name.endswith("bytes_per_record"):
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_key") or name.endswith("per_page"):
        return "lines"
    return "count"


def per_layer(run, layer_metrics, execute):
    """Per-layer metrics of a traced run."""
    metrics = dict(layer_metrics)
    for kind in COMMON_KINDS:
        metrics["harness.execute_ms." + kind] = execute[
            "harness.execute_ms." + kind]
    spans = run.spans
    metrics["service.admit_wait_ms"] = benchlib.median(
        spans.durations_ms("service.admit_wait"))
    metrics["service.scrape_ms"] = benchlib.median(
        spans.durations_ms("service.scrape"))
    metrics.update(wall_clock(run))
    t = run.totals
    plans = t["plan-hits"] + t["plan-misses"]
    metrics["orchestrator.plan_cache.hit_ratio"] = t["plan-hits"] / plans
    # In-process campaigns count executed jobs; sharded ones merged entries.
    served = t["hits"] + t["executed"] + t["merged"]
    metrics["orchestrator.result_cache.hit_ratio"] = t["hits"] / served
    metrics["orchestrator.result_cache.store_lines_per_key"] = \
        run.lines_per_key
    for name in COUNTERS:
        metrics["stats." + name] = run.warm_counters[name]
    if not (run.traced_campaign_ms and run.untraced_campaign_ms):
        raise CheckError("the traced run needs two timed campaigns")
    traced = benchlib.median(run.traced_campaign_ms)
    metrics["trace.campaign_p50_ms"] = traced
    metrics["trace.overhead_ratio"] = traced / benchlib.median(
        run.untraced_campaign_ms)
    return metrics


def write_trace(run, metrics, execute, repeats):
    """The traced run's spans and counters as one JSON document."""
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces", "%s-seed%d.json" % (
        run.args.workload, run.args.seed))
    shard = {name: benchlib.median(run.spans.durations_ms(name))
             for name in ("service.shard", "service.merge_tail")
             if run.spans.durations_ms(name)}
    doc = {"workload": run.args.workload, "seed": run.args.seed,
           "spans": run.spans.items, "per_layer": metrics,
           "execute_ms_by_kind": execute, "shard_spans_p50_ms": shard,
           "stats_after_warmup": run.warm_counters,
           "stats_repeat_for_seed": repeats, "stats_end_of_run": run.totals}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path, shard


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except subprocess.CalledProcessError as e:
        log("build failed: %s" % e)
        return 1
    rundir = os.path.join(BUILD, "runs", "%s-%d" % (args.workload,
                                                    os.getpid()))
    os.makedirs(rundir)
    with open("/proc/stat") as f:
        host0 = benchlib.parse_host_cpu(f.read())
    run = Run(args, rundir)
    workload = WORKLOADS[args.workload]
    try:
        workload(run)
        with open("/proc/stat") as f:
            steal = benchlib.steal_share(host0,
                                         benchlib.parse_host_cpu(f.read()))
        e2e = end_to_end(run)
        metrics = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}

        # Output checks beyond the stream's own: every streamed entry's
        # digest, and one campaign's record set against the orchestrator's
        # in-process result for the same request.
        streamed = run.path("streamed.txt")
        with open(streamed, "w") as f:
            f.write("\n".join(run.streamed) + "\n")
        layers_tool("check", streamed)
        if run.reference is None:
            raise CheckError("no campaign to check against the orchestrator")
        request, records = run.reference
        with open(run.path("reference.req"), "w") as f:
            f.write("\n".join(request) + "\n")
        extra = ["--serial"] if args.trace else []
        execute_json = layers_tool("reference", run.path("reference.req"),
                                   run.path("reference.txt"), *extra)
        with open(run.path("reference.txt")) as f:
            want = f.read().split("\n")[:-1]
        benchlib.check_same_set(records, want, "in-process reference")

        if args.trace:
            execute = json.loads(execute_json)
            with open(run.path("records.txt"), "w") as f:
                f.write("\n".join(records) + "\n")
            layer_metrics = json.loads(layers_tool(
                "layers", run.path("reference.req"),
                run.path("records.txt"), run.layer_store))
            # Counters a second fresh daemon reproduces for this seed.
            probe = Run(args, os.path.join(rundir, "probe"))
            os.makedirs(probe.rundir)
            probe.spans.enabled = False
            workload(probe, stop_after_warmup=True)
            repeats = {k: run.warm_counters[k] == probe.warm_counters[k]
                       for k in COUNTERS}
            metrics = per_layer(run, layer_metrics, execute)
            units = {k: unit_of(k) for k in metrics}
            path, shard = write_trace(run, metrics, execute, repeats)
            log("spans written to %s" % os.path.relpath(path, REPO))
            log("shard spans (p50 ms): %s" % json.dumps(shard))
            log("stats after warm-up repeat for this seed: %s" % ", ".join(
                "%s=%s" % (k, "yes" if v else "NO")
                for k, v in repeats.items()))
    except CheckError as e:
        log("output check failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    queries = run.samples["query_ms"]
    tail = ("query_p90_ms %.4f over %d traversals" % (
        benchlib.percentile(queries, 90), len(queries))
        if benchlib.tail_allowed(len(queries))
        else "no query_p90_ms (%d traversals)" % len(queries))
    log("%s seed %d: host steal %.1f%%, daemon cpu %.2f s, %d campaigns, "
        "failed_ratio %d/%d, %s" % (
            args.workload, args.seed, 100 * steal, run.cpu_ms / 1000,
            len(run.samples["campaign_ms"]), run.failed, run.attempted,
            tail))
    log("campaign_ms samples: %s" % " ".join(
        "%.1f" % v for v in run.samples["campaign_ms"]))
    log("peak RSS samples (MiB): %s" % " ".join(
        "%.2f" % v for v in run.samples["rss"]))
    for name, value in metrics.items():
        log("  %-48s %14.4f %s" % (name, value, units[name]))
    if not args.trace:
        log("wall clock (per-layer, ungated): %s" % ", ".join(
            "%s %.4f" % kv for kv in wall_clock(run).items()))
    result = {"correct": True, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
