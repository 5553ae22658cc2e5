#!/usr/bin/env python3
"""Self-test for artsparse_lint.py: pins each rule id against its fixture
(tools/lint_fixtures/), the exit-code contract, the JSON report shape,
and a clean scan of the real tree. Run directly or via the lint_selftest
ctest."""

import json
import os
import subprocess
import sys
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINTER = os.path.join(TOOLS_DIR, "artsparse_lint.py")
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")


def run_lint(*paths, as_json=True):
    command = [sys.executable, LINTER, "--root", REPO_ROOT]
    if as_json:
        command.append("--json")
    command.extend(paths)
    completed = subprocess.run(command, capture_output=True, text=True)
    report = json.loads(completed.stdout) if as_json else None
    return completed.returncode, report, completed.stdout


def fixture(name):
    return os.path.join(FIXTURES, name)


class RuleFixtures(unittest.TestCase):
    def assert_rules(self, path, expected_rules):
        exit_code, report, _ = run_lint(fixture(path))
        rules = [v["rule"] for v in report["violations"]]
        self.assertEqual(rules, expected_rules)
        self.assertEqual(exit_code, 1 if expected_rules else 0)

    def test_asl001_raw_getenv(self):
        self.assert_rules("bad_getenv.cpp", ["ASL001"])

    def test_asl002_raw_file_ops_not_filesystem(self):
        # Three raw C calls flagged; the std::filesystem calls are not.
        self.assert_rules("bad_file_ops.cpp",
                          ["ASL002", "ASL002", "ASL002"])

    def test_asl003_naked_thread(self):
        # Construction flagged; hardware_concurrency query is not.
        self.assert_rules("bad_thread.cpp", ["ASL003"])

    def test_asl004_obs_macro_outside_guard(self):
        # The unguarded use only; the #if ARTSPARSE_OBS_ENABLED one is ok.
        self.assert_rules("bad_obs_header.hpp", ["ASL004"])

    def test_asl005_unguarded_and_raw_mutex(self):
        self.assert_rules("bad_mutex.hpp", ["ASL005", "ASL005"])

    def test_asl006_raw_sleep(self):
        # sleep_for and sleep_until both flagged.
        self.assert_rules("bad_sleep.cpp", ["ASL006", "ASL006"])

    def test_asl007_require_message_builds_string(self):
        # `+`, std::to_string and std::string( in the message, one of them
        # on a call split over two lines; arithmetic in a condition,
        # punctuation inside a literal and a 100'000 digit separator are
        # not flagged.
        self.assert_rules("bad_require.cpp", ["ASL007"] * 5)

    def test_suppression_comment(self):
        self.assert_rules("suppressed.cpp", [])

    def test_clean_fixture(self):
        self.assert_rules("clean.hpp", [])


class ReportShape(unittest.TestCase):
    def test_json_fields_and_line_numbers(self):
        _, report, _ = run_lint(fixture("bad_getenv.cpp"))
        self.assertEqual(report["checked_files"], 1)
        (violation,) = report["violations"]
        self.assertEqual(violation["rule"], "ASL001")
        self.assertTrue(violation["path"].endswith("bad_getenv.cpp"))
        self.assertEqual(violation["line"], 5)
        self.assertIn("core/env", violation["message"])
        self.assertIn("getenv", violation["snippet"])

    def test_text_mode_mentions_rule_and_count(self):
        exit_code, _, stdout = run_lint(fixture("bad_thread.cpp"),
                                        as_json=False)
        self.assertEqual(exit_code, 1)
        self.assertIn("[ASL003]", stdout)
        self.assertIn("1 violation(s)", stdout)


class RealTree(unittest.TestCase):
    def test_src_and_tools_are_clean(self):
        # The default scan (src/ + tools/, fixtures excluded) must pass:
        # this is the same invocation CI gates on.
        exit_code, report, _ = run_lint()
        self.assertEqual(
            [v for v in report["violations"]], [],
            "project tree has lint violations; run "
            "tools/artsparse_lint.py for details")
        self.assertEqual(exit_code, 0)
        # Sanity: the scan actually covered the tree.
        self.assertGreater(report["checked_files"], 50)

    def test_sanctioned_sites_are_exempt(self):
        # core/env.cpp's getenv and file_io's rename are the sanctioned
        # implementations; linting them directly stays clean.
        exit_code, _, _ = run_lint(
            os.path.join(REPO_ROOT, "src", "core", "env.cpp"),
            os.path.join(REPO_ROOT, "src", "storage", "file_io.cpp"),
            os.path.join(REPO_ROOT, "src", "core", "parallel.cpp"),
            os.path.join(REPO_ROOT, "src", "core", "deadline.cpp"),
            os.path.join(REPO_ROOT, "src", "storage", "throttle.cpp"))
        self.assertEqual(exit_code, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
