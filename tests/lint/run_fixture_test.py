#!/usr/bin/env python3
"""Fixture harness for VaultLint (registered with ctest as lint_fixtures).

Each fixture is linted in its OWN vault_lint invocation — the channel-kind
check unions coverage across the analyzed file set, so co-linting a clean
fixture with a violating one would mask the hole the fixture plants.

Asserts, per fixture, the exact per-check finding counts recorded in
golden_findings.json:
  * every check fires on its violating TU (detection), and
  * clean.cpp produces zero unsuppressed findings and exercises one
    justified suppression (no false positives).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
DRIVER = os.path.join(REPO, "tools", "vault_lint", "vault_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden_findings.json")


def lint(fixture: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "findings.json")
        proc = subprocess.run(
            [sys.executable, DRIVER, "--files",
             os.path.join(FIXTURES, fixture),
             "--quiet", "--json", artifact],
            capture_output=True, text=True)
        with open(artifact, encoding="utf-8") as f:
            report = json.load(f)
    report["exit_code"] = proc.returncode
    return report


def main() -> int:
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    failures = []
    for fixture, expected in sorted(golden.items()):
        report = lint(fixture)
        got: dict[str, int] = {}
        for finding in report["findings"]:
            got[finding["check"]] = got.get(finding["check"], 0) + 1
        if got != expected:
            failures.append(f"{fixture}: expected {expected}, got {got}")
            continue
        want_exit = 1 if expected else 0
        if report["exit_code"] != want_exit:
            failures.append(f"{fixture}: expected exit {want_exit}, "
                            f"got {report['exit_code']}")
            continue
        if fixture == "clean.cpp" and len(report.get("suppressed", [])) != 1:
            failures.append(
                f"clean.cpp: expected exactly 1 exercised suppression, got "
                f"{len(report.get('suppressed', []))}")
            continue
        print(f"PASS {fixture}: {expected or 'clean'}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"all {len(golden)} fixtures pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
