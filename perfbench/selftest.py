#!/usr/bin/env python3
"""Self-tests for the benchmark's checkers, reference code and tracing.

Run from the root of a leetforge checkout:

    python3 perfbench/selftest.py

Each workload runs once in-process on small seeded inputs. Its checker must
pass the real result and flag a deliberately corrupted copy (failed > 0).
"""

from __future__ import annotations

import copy
import hashlib
import shutil
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import oracle     # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402
from worker import KEEP  # noqa: E402

SEED = 11
SCALE = 0.05


class WorkloadCase:
    """Shared tests; each subclass also derives from unittest.TestCase."""

    name = ""

    @classmethod
    def setUpClass(cls):
        cls.work = workloads.WORKLOADS[cls.name]
        cls.workdir = ROOT / ".perfbench" / "selftest" / cls.name
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.workdir.mkdir(parents=True)
        cls.spec, cls.expected = cls.work.prepare(SEED, cls.workdir, SCALE)
        cls.lf = workloads.import_program(cls.name)
        state = cls.work.setup(cls.lf, cls.spec, tracing.NULL)
        cls.output, cls.items = cls.work.run(cls.lf, state, tracing.NULL)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def check(self, output):
        return self.work.check(output, self.expected)

    def test_real_result_has_no_wrong_results(self):
        result = self.check(self.output)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(self.items, 0)

    def test_traced_run_records_every_named_span(self):
        tr = tracing.Tracer(keep=KEEP)
        try:
            tr.call("harness.import", workloads.import_program, self.name)
            self.work.instrument(self.lf, tr)
            state = self.work.setup(self.lf, self.spec, tr)
            output, _ = self.work.run(self.lf, state, tr)
        finally:
            tr.restore()
        self.assertEqual(self.check(output)["failed"], 0)
        self.assertEqual(tracing.missing_spans(self.work.spans, tr.spans), [])
        # A layer whose calls stop reaching its traced binding must be reported.
        lost = self.work.spans[-1]
        remaining = [s for s in tr.spans if s[0] != lost]
        self.assertEqual(tracing.missing_spans(self.work.spans, remaining), [lost])


class BenchUpliftTest(WorkloadCase, unittest.TestCase):
    name = "bench-uplift"

    def test_flags_wrong_counts(self):
        for key in ("pattern_recovered", "baseline_recovered", "candidate_count"):
            bad = dict(self.output, **{key: self.output[key] + 1})
            self.assertGreater(self.check(bad)["failed"], 0, key)

    def test_flags_wrong_uplift(self):
        bad = dict(self.output, uplift_percent=self.output["uplift_percent"] + 0.1)
        self.assertGreater(self.check(bad)["failed"], 0)


class DictPassTest(WorkloadCase, unittest.TestCase):
    name = "dict-pass"

    def corrupt_potfile(self, edit):
        path = Path(self.output["potfile"])
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = self.workdir / "bad.pot"
        bad.write_text("".join(f"{line}\n" for line in edit(lines)), encoding="utf-8")
        return self.check(dict(self.output, potfile=str(bad)))

    def test_flags_missing_recovery(self):
        self.assertGreater(self.corrupt_potfile(lambda lines: lines[1:])["failed"], 0)

    def test_flags_decoy_recovery(self):
        decoy = f"{hashlib.md5(b'decoy').hexdigest()}:decoy"
        self.assertGreater(self.corrupt_potfile(lambda lines: lines + [decoy])["failed"], 0)

    def test_flags_line_that_does_not_hash_back(self):
        def swap(lines):
            digest, _, plain = lines[0].partition(":")
            return [f"{digest}:{plain}x"] + lines[1:]
        self.assertGreater(self.corrupt_potfile(swap)["failed"], 0)

    def test_flags_wrong_attempt_count(self):
        bad = dict(self.output, attempted=self.output["attempted"] - 1)
        self.assertGreater(self.check(bad)["failed"], 0)


class GenProvenanceTest(WorkloadCase, unittest.TestCase):
    name = "gen-provenance"

    def corrupt(self, edit, key="provenance"):
        lines = Path(self.output[key]).read_text(encoding="utf-8").splitlines()
        bad = self.workdir / f"bad-{key}"
        bad.write_text("".join(f"{line}\n" for line in edit(lines)), encoding="utf-8")
        return self.check(dict(self.output, **{key: str(bad)}))

    def test_flags_duplicate_candidate(self):
        self.assertGreater(self.corrupt(lambda lines: lines + lines[-1:])["failed"], 0)

    def test_flags_record_that_does_not_replay(self):
        def mislabel(lines):
            i = next(i for i, line in enumerate(lines) if "\tBASE" not in line)
            cand, base, _ = lines[i].split("\t")
            return lines[:i] + [f"{cand}\t{base}\tS1"] + lines[i + 1:]
        self.assertGreater(self.corrupt(mislabel)["failed"], 0)

    def test_flags_line_count_not_equal_to_emitted(self):
        bad = dict(self.output, emitted=self.output["emitted"] + 1)
        self.assertGreater(self.check(bad)["failed"], 0)

    def test_flags_reordered_output(self):
        def swap(lines):
            return [lines[1], lines[0]] + lines[2:]
        self.assertGreater(self.corrupt(swap)["failed"], 0)
        self.assertGreater(self.corrupt(swap, key="output")["failed"], 0)


class AuditMixedTest(WorkloadCase, unittest.TestCase):
    name = "audit-mixed"

    def test_known_gaps_show_as_mismatches(self):
        result = self.check(self.output)
        self.assertGreater(result["mismatched"], 0)
        self.assertGreater(result["missed"], 0)

    def test_flags_false_finding(self):
        bad = copy.deepcopy(self.output)
        bad["results"][0]["findings"].append({"base_word": "zzzzzz", "rule_id": "S1"})
        self.assertGreater(self.check(bad)["failed"], 0)

    def test_flags_missed_finding_outside_known_gap(self):
        bad = copy.deepcopy(self.output)
        gaps = self.expected["known_gaps"]
        i = next(i for i, doc in enumerate(bad["results"])
                 if any([f["base_word"], f["rule_id"]] not in gaps[i] for f in doc["findings"]))
        bad["results"][i]["findings"].pop()
        self.assertGreater(self.check(bad)["failed"], 0)

    def test_flags_audit_that_finds_nothing(self):
        bad = copy.deepcopy(self.output)
        for doc in bad["results"]:
            doc["findings"] = []
        self.assertGreater(self.check(bad)["failed"], 0)

    def test_flags_missing_answer(self):
        bad = dict(self.output, results=self.output["results"][:-1])
        self.assertGreater(self.check(bad)["failed"], 0)


class OracleTest(unittest.TestCase):
    def test_known_audit_gap(self):
        self.assertTrue(oracle.base_holds_replacement("admin1", "S19"))
        self.assertFalse(oracle.base_holds_replacement("admin", "S19"))
        self.assertFalse(oracle.base_holds_replacement("admin1", oracle.BASE_RULE_ID))

    def test_rule_inventory(self):
        self.assertEqual(len(oracle.RULES), 67)
        self.assertEqual(oracle.mangle("password", oracle.RULE_BY_ID["S28"]), "passw0rd")
        self.assertEqual(oracle.mangle("Skater", oracle.RULE_BY_ID["S41"]), "Ska8er")
        self.assertIsNone(oracle.mangle("xyz", oracle.RULE_BY_ID["S1"]))

    def test_uplift(self):
        self.assertTrue(oracle.uplift_matches(75.6, 17210, 30215))
        self.assertFalse(oracle.uplift_matches(75.7, 17210, 30215))
        self.assertTrue(oracle.uplift_matches(None, 0, 5))


if __name__ == "__main__":
    if not (ROOT / "src" / "leetforge" / "__init__.py").is_file():
        sys.exit("selftest: run from the root of a leetforge checkout")
    unittest.main()
