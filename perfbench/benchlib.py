"""Pure helpers of the campaign-service benchmark: statistics, /proc
parsing, the service stream parser and the set-based output checks.

Nothing here talks to a daemon, so selftest.py can exercise all of it
offline against recorded transcripts.
"""

import statistics

# A quantile above the median is reported only when at least this many
# samples back it; below that, the "p90" of a handful of samples is just the
# maximum and moves with any single outlier.
MIN_SAMPLES_FOR_TAIL = 100

# JobKind enum order (src/orchestrator/job.hpp) -> protocol name.
JOB_KINDS = ["gemm-measure", "gemm-verify", "stream", "power-idle",
             "gpu-stream", "precision-study", "ane-inference",
             "fp64-emulation", "sme-gemm"]
CHIPS = ["m1", "m2", "m3", "m4"]
IMPLS = ["cpu-single", "cpu-omp", "cpu-accelerate", "gpu-naive",
         "gpu-cutlass", "gpu-mps"]


class CheckError(Exception):
    """An output check failed: the run must not report a result."""


# ------------------------------------------------------------ statistics ---

def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return float(statistics.median(values))


def tail_allowed(count):
    """True when `count` samples are enough to report a p90."""
    return count >= MIN_SAMPLES_FOR_TAIL


# ------------------------------------------------------------------ /proc ---

def parse_proc_stat_cpu(text):
    """utime+stime+cutime+cstime clock ticks from a /proc/<pid>/stat line.

    The comm field may contain spaces and parentheses, so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime is field 14.
    return sum(int(rest[i]) for i in (11, 12, 13, 14))


def parse_vm_hwm_kib(status_text):
    """VmHWM (peak resident set) in KiB from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def parse_host_cpu(text):
    """(total, steal) jiffies from the aggregate 'cpu' line of /proc/stat."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = [int(v) for v in line.split()[1:]]
            # user nice system idle iowait irq softirq steal guest guest_nice;
            # guest time is already counted in user/nice.
            return sum(fields[:8]), fields[7]
    raise ValueError("no aggregate cpu line")


def steal_share(before, after):
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


# ---------------------------------------------------------- entry lines ---

def entry_key(entry):
    """The six CacheKey fields of an entry line, as a tuple of ints."""
    fields = entry.split(" ", 7)
    if fields[0] != "entry" or len(fields) < 8:
        raise CheckError("not an entry line: " + entry[:80])
    return tuple(int(f, 16) for f in fields[1:7])


def gemm_flags(entry):
    """(n, functional, verified) of a gemm record, None for other kinds."""
    tokens = entry.rpartition(" # ")[0].split()
    if tokens[7] != "gemm":
        return None
    rec = tokens[8:]
    count = int(rec[3], 16)
    tail = rec[4 + count + 6:]
    return int(rec[2], 16), int(tail[0], 16) == 1, int(tail[1], 16) == 1


def key_matches(key, flt):
    """QueryFilter::matches over an entry_key tuple; `flt` holds the
    protocol filter words (kind/chip/impl/size-min/size-max)."""
    kind, chip, impl, n = key[0], key[1], key[2], key[3]
    if "kind" in flt and JOB_KINDS[kind] != flt["kind"]:
        return False
    if "chip" in flt and CHIPS[chip] != flt["chip"]:
        return False
    if "impl" in flt and IMPLS[impl] != flt["impl"]:
        return False
    if "size-min" in flt and n < int(flt["size-min"]):
        return False
    if "size-max" in flt and n > int(flt["size-max"]):
        return False
    return True


# ------------------------------------------------------- stream parsing ---

def parse_done(line):
    """Parses both `done campaign` forms into a dict.

    In-process:  done campaign <id> records <r> executed <e> hits <h>
    Sharded:     done campaign <id> records <r> merged <m> hits <h>
                 shards <s> [remote <n>]
    """
    words = line.split()
    if words[:2] != ["done", "campaign"] or len(words) % 2 != 1:
        raise CheckError("malformed done line: " + line)
    done = {"id": int(words[2])}
    for name, value in zip(words[3::2], words[4::2]):
        done[name] = int(value)
    if "executed" in done:
        done["form"] = "executed"
    elif "merged" in done and "shards" in done:
        done["form"] = "merged"
    else:
        raise CheckError("unknown done form: " + line)
    if "records" not in done or "hits" not in done:
        raise CheckError("done line lacks records/hits: " + line)
    return done


def parse_campaign(lines):
    """Parses one campaign reply stream (`ok campaign` .. `done campaign`).

    Returns a dict with the header, the record entries in stream order, the
    shard events and the parsed done line. Raises CheckError on an error
    reply or a stream that ends before its done line."""
    out = {"records": [], "shard_events": [], "header": None, "done": None,
           "started": False}
    for line in lines:
        if line.startswith("record "):
            out["records"].append(line[len("record "):])
        elif line.startswith("progress ") or line.startswith("queued "):
            continue
        elif line.startswith("ok campaign "):
            words = line.split()
            out["header"] = {"id": int(words[2])}
            for name, value in zip(words[3::2], words[4::2]):
                out["header"][name] = value
        elif line.startswith("started campaign "):
            out["started"] = True
        elif line.startswith("shard "):
            out["shard_events"].append(line)
            if " error " in line:
                raise CheckError("shard failed: " + line)
        elif line.startswith("done campaign "):
            out["done"] = parse_done(line)
        else:
            raise CheckError("unexpected campaign reply: " + line)
    if out["header"] is None or not out["started"] or out["done"] is None:
        raise CheckError("campaign stream lacks its ok/started/done lines")
    return out


def check_campaign(parsed, verify_max=256):
    """Stream-internal checks of one campaign: the record count matches the
    `ok` header and the done line, no key repeats, and every functional GEMM
    record within the verification ceiling was verified. Returns the sorted
    record set. (Entry digests are checked in bulk by perfbench_layers.)"""
    records = parsed["records"]
    expected = int(parsed["header"]["records"])
    if parsed["done"]["id"] != parsed["header"]["id"]:
        raise CheckError("done line names another campaign")
    if len(records) != expected or parsed["done"]["records"] != expected:
        raise CheckError("record count %d, header %d, done %d" % (
            len(records), expected, parsed["done"]["records"]))
    keys = set()
    for entry in records:
        key = entry_key(entry)
        if key in keys:
            raise CheckError("duplicate key in campaign stream")
        keys.add(key)
        flags = gemm_flags(entry)
        if flags and flags[1] and flags[0] <= verify_max and not flags[2]:
            raise CheckError("functional gemm record not verified")
    return sorted(records)


def check_same_set(got, want, what):
    """Order-free equality of two record collections."""
    got_sorted, want_sorted = sorted(got), sorted(want)
    if got_sorted != want_sorted:
        missing = len(set(want_sorted) - set(got_sorted))
        extra = len(set(got_sorted) - set(want_sorted))
        raise CheckError("%s: %d records missing, %d unexpected (got %d, "
                         "want %d)" % (what, missing, extra, len(got_sorted),
                                       len(want_sorted)))


def parse_follow(lines):
    """(entries, trailer words) of a `follow` reply."""
    entries = []
    for line in lines[:-1]:
        if not line.startswith("follow-record "):
            raise CheckError("unexpected follow reply: " + line)
        entries.append(line.split(" ", 2)[2])
    trailer = lines[-1].split()
    if trailer[:2] != ["follow", "campaign"]:
        raise CheckError("follow reply without trailer: " + lines[-1])
    fields = dict(zip(trailer[3::2], trailer[4::2]))
    if int(fields["records"]) != len(entries) or fields["state"] != "complete":
        raise CheckError("follow trailer disagrees: " + lines[-1])
    return entries


def parse_query_page(lines):
    """(entries, trailer dict) of one `query` page."""
    entries = []
    for line in lines[:-1]:
        if not line.startswith("query-record "):
            raise CheckError("unexpected query reply: " + line)
        entries.append(line[len("query-record "):])
    trailer = lines[-1].split()
    if trailer[:2] != ["query-page", "count"]:
        raise CheckError("query reply without trailer: " + lines[-1])
    fields = dict(zip(trailer[1::2], trailer[2::2]))
    if int(fields["count"]) != len(entries):
        raise CheckError("query page count disagrees: " + lines[-1])
    return entries, fields


def parse_stats(line):
    """Counter dict of the aggregate `stats` line."""
    words = line.split()
    if words[0] != "stats":
        raise CheckError("not a stats line: " + line)
    return {k: int(v) for k, v in zip(words[1::2], words[2::2])}
