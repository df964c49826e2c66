"""Self-test of the benchmark's own math and checks; needs no daemon.

    python3 perfbench/run.py --self-test

testdata/ holds two recorded daemon transcripts of the request in
testdata/campaign.request, one run in-process (`workers 2`) and one on two
local shard workers (`shards 2`), and reference.sorted, the sorted records
`perfbench_layers reference testdata/campaign.request <out>` writes for it.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
from benchlib import CheckError  # noqa: E402

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def read(name):
    with open(os.path.join(DATA, name)) as f:
        return f.read().split("\n")[:-1]


class Statistics(unittest.TestCase):
    def test_percentiles_interpolate(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(benchlib.percentile(values, 50), 5.5)
        self.assertAlmostEqual(benchlib.percentile(values, 90), 9.1)
        self.assertEqual(benchlib.percentile([7.0], 90), 7.0)
        self.assertEqual(benchlib.median([3, 1, 2]), 2.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_enough_samples(self):
        self.assertFalse(benchlib.tail_allowed(99))
        self.assertTrue(benchlib.tail_allowed(100))


class ProcParsing(unittest.TestCase):
    def test_stat_sums_own_and_children_cpu(self):
        # comm may hold spaces and parentheses; fields 14-17 are the CPU.
        line = ("4242 (ao camp) d) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
                "150 25 7 3 20 0 9 0 1000 0 0\n")
        self.assertEqual(benchlib.parse_proc_stat_cpu(line), 185)

    def test_vm_hwm(self):
        status = "Name:\tao_campaignd\nVmPeak:\t 9 kB\nVmHWM:\t  4360 kB\n"
        self.assertEqual(benchlib.parse_vm_hwm_kib(status), 4360)
        with self.assertRaises(ValueError):
            benchlib.parse_vm_hwm_kib("Name:\tx\n")

    def test_host_steal_share(self):
        before = benchlib.parse_host_cpu(
            "cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
        after = benchlib.parse_host_cpu(
            "cpu  200 0 100 1600 20 0 0 80 0 0\n")
        self.assertEqual(before, (1000, 40))
        self.assertAlmostEqual(benchlib.steal_share(before, after), 0.04)


class StreamParsing(unittest.TestCase):
    def test_both_done_forms(self):
        local = benchlib.parse_done(
            "done campaign 3 records 24 executed 32 hits 0")
        self.assertEqual((local["form"], local["executed"]), ("executed", 32))
        sharded = benchlib.parse_done(
            "done campaign 4 records 24 merged 20 hits 4 shards 2 remote 2")
        self.assertEqual((sharded["form"], sharded["shards"],
                          sharded["remote"]), ("merged", 2, 2))
        with self.assertRaises(CheckError):
            benchlib.parse_done("done campaign 5 records 24 hits 0")

    def test_recorded_transcripts_match_reference_as_sets(self):
        reference = read("reference.sorted")
        for name in ("inprocess.transcript", "sharded.transcript"):
            parsed = benchlib.parse_campaign(read(name))
            records = benchlib.check_campaign(parsed)
            self.assertEqual(len(records), 24)
            benchlib.check_same_set(records, reference, name)
        # The two streams differ in order; only the sets agree.
        order = [benchlib.parse_campaign(read(n))["records"]
                 for n in ("inprocess.transcript", "sharded.transcript")]
        self.assertNotEqual(order[0], reference)
        self.assertEqual(sorted(order[0]), sorted(order[1]))

    def test_error_reply_is_rejected(self):
        with self.assertRaises(CheckError):
            benchlib.parse_campaign(
                read("inprocess.transcript")[:3] +
                ["error exec-failed campaign 1 failed: boom"])


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.lines = read("sharded.transcript")
        self.reference = read("reference.sorted")
        self.record_at = next(i for i, l in enumerate(self.lines)
                              if l.startswith("record "))

    def test_dropped_record_is_caught(self):
        lines = list(self.lines)
        del lines[self.record_at]
        with self.assertRaises(CheckError):
            benchlib.check_campaign(benchlib.parse_campaign(lines))
        # Even with the counts doctored to agree, the set check catches it.
        records = benchlib.parse_campaign(lines)["records"]
        with self.assertRaises(CheckError):
            benchlib.check_same_set(records, self.reference, "dropped")

    def test_flipped_payload_bit_is_caught(self):
        lines = list(self.lines)
        line = lines[self.record_at]
        at = line.index(" gemm ") + 8  # a hex digit of the record payload
        flipped = "%x" % (int(line[at], 16) ^ 1)
        lines[self.record_at] = line[:at] + flipped + line[at + 1:]
        records = benchlib.check_campaign(benchlib.parse_campaign(lines))
        with self.assertRaises(CheckError):
            benchlib.check_same_set(records, self.reference, "flipped")

    def test_duplicate_key_is_caught(self):
        lines = list(self.lines)
        lines[self.record_at + 2] = lines[self.record_at]
        with self.assertRaises(CheckError):
            benchlib.check_campaign(benchlib.parse_campaign(lines))

    def test_unverified_functional_gemm_is_caught(self):
        lines = list(self.lines)
        at = next(i for i, l in enumerate(lines) if l.startswith("record ")
                  and (benchlib.gemm_flags(l[7:]) or (0, False))[1])
        body, _, digest = lines[at][7:].rpartition(" # ")
        tokens = body.split()
        # entry, 6 key fields, "gemm", chip impl n count, samples, 6 doubles,
        # functional, verified.
        verified = 8 + 4 + int(tokens[11], 16) + 6 + 1
        self.assertEqual(tokens[verified], "1")
        tokens[verified] = "0"
        lines[at] = "record " + " ".join(tokens) + " # " + digest
        with self.assertRaises(CheckError):
            benchlib.check_campaign(benchlib.parse_campaign(lines))

    def test_query_filter_mirrors_the_daemon(self):
        keys = [benchlib.entry_key(r) for r in self.reference]
        m1_mps = [k for k in keys if benchlib.key_matches(
            k, {"chip": "m1", "impl": "gpu-mps"})]
        self.assertEqual(len(m1_mps), 2)  # sizes 32 and 64
        small = [k for k in keys if benchlib.key_matches(
            k, {"kind": "gemm-measure", "size-min": 40, "size-max": 64})]
        self.assertEqual(len(small), 4)   # 2 chips x 2 impls at n = 64


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
