#!/usr/bin/env python3
"""Fails when a gtest binary's test names are not reproducible.

    python3 check_test_names.py <gtest binary>

gtest_discover_tests copies each parameterized test's "# GetParam() = ..."
text into its ctest name. A parameter type with no gtest printer prints as
its raw bytes ("24-byte object <...>"), struct padding included, and the
padding is uninitialized: two listings of one binary then differ, and a
diff of two builds' test lists shows tests as gone that still exist. The
structs in test_scan.cpp and test_format_roundtrip.cpp print the same dump
with zero padding (print_zero_padded in test_support.hpp).

Lists the tests three times and exits 1 if a later listing differs from
the first. Run directly or via the test_names_stable ctest.
"""

import subprocess
import sys


def list_tests(binary):
    return subprocess.run([binary, "--gtest_list_tests"], capture_output=True,
                          text=True, errors="replace", check=True).stdout


def main(binary):
    first = list_tests(binary)
    problems = []
    for _ in range(2):
        again = list_tests(binary)
        if again != first:
            changed = set(first.splitlines()) ^ set(again.splitlines())
            problems.append("two listings differ on %d lines, e.g. %r" %
                            (len(changed), sorted(changed)[0]))
    for problem in problems:
        print("FAIL " + problem)
    print("%d test names checked" % sum(
        1 for line in first.splitlines() if line.startswith("  ")))
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
