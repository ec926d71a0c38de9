#!/usr/bin/env python3
"""VaultLint driver.

Lints the GNNVault tree against the GV_* annotation contracts
(src/common/annotations.hpp): secret-egress, channel-kind, ecall-abi,
lock-rank, and suppression hygiene.  See docs/static_analysis.md.

Typical invocations:

    # CI gate: whole tree, fail on findings
    python3 tools/vault_lint/vault_lint.py \
        --compile-commands build/compile_commands.json \
        --include src --json lint_findings.json

    # Fixture / single-file mode
    python3 tools/vault_lint/vault_lint.py --files tests/lint/fixtures/bad_lock_rank.cpp

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gvlint import CHECKS  # noqa: E402
from gvlint.checks import Analysis  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="vault_lint", description=__doc__)
    p.add_argument("--compile-commands",
                   help="compile_commands.json listing the TUs to lint")
    p.add_argument("--files", nargs="*", default=[],
                   help="explicit file list (bypasses compile_commands)")
    p.add_argument("--include", action="append", default=[],
                   help="only lint paths under this prefix (repeatable); "
                        "headers beneath it are linted too")
    p.add_argument("--json", dest="json_out",
                   help="write the findings artifact to this path")
    p.add_argument("--rank-table", default=None,
                   help="header declaring the gv::lockrank constants "
                        "(default: <repo-root>/src/common/thread_safety.hpp)")
    p.add_argument("--repo-root", default=None,
                   help="repository root (default: two levels above this "
                        "script)")
    p.add_argument("--no-headers", action="store_true",
                   help="do not add headers under --include prefixes")
    p.add_argument("--quiet", action="store_true",
                   help="summary line only")
    return p.parse_args(argv)


def collect_files(args: argparse.Namespace, root: str) -> list[str]:
    files: list[str] = []
    if args.files:
        files = [os.path.abspath(f) for f in args.files]
    elif args.compile_commands:
        try:
            with open(args.compile_commands, encoding="utf-8") as f:
                db = json.load(f)
        except (OSError, ValueError) as e:
            print(f"vault_lint: cannot read {args.compile_commands}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        for entry in db:
            files.append(os.path.abspath(
                os.path.join(entry.get("directory", "."), entry["file"])))
    else:
        print("vault_lint: need --compile-commands or --files", file=sys.stderr)
        sys.exit(2)

    prefixes = [os.path.abspath(os.path.join(root, p)) for p in args.include]
    if prefixes:
        files = [f for f in files
                 if any(f.startswith(p + os.sep) or f == p for p in prefixes)]
        if not args.no_headers:
            for p in prefixes:
                for pat in ("**/*.hpp", "**/*.h"):
                    files.extend(os.path.abspath(h) for h in
                                 glob.glob(os.path.join(p, pat), recursive=True))
    return sorted(set(files))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.path.abspath(args.repo_root or
                           os.path.join(os.path.dirname(__file__), "..", ".."))
    files = collect_files(args, root)
    if not files:
        print("vault_lint: no files to lint", file=sys.stderr)
        return 2

    rank_table = args.rank_table or os.path.join(root, "src", "common",
                                                 "thread_safety.hpp")
    if not os.path.exists(rank_table):
        rank_table = None

    reports = Analysis(files, rank_table_file=rank_table).run()

    findings = []
    suppressed = []
    for r in reports:
        for f in r.findings:
            (suppressed if f.suppressed else findings).append(f)

    def rel(path: str) -> str:
        try:
            return os.path.relpath(path, root)
        except ValueError:
            return path

    if not args.quiet:
        for f in sorted(findings, key=lambda f: (f.file, f.line)):
            print(f"{rel(f.file)}:{f.line}: [{f.check}] {f.message}")
        for f in sorted(suppressed, key=lambda f: (f.file, f.line)):
            print(f"{rel(f.file)}:{f.line}: [{f.check}] suppressed "
                  f"({f.suppress_reason})")
    by_check = {c: sum(1 for f in findings if f.check == c) for c in CHECKS}
    tally = ", ".join(f"{c}={n}" for c, n in by_check.items() if n)
    print(f"vault_lint: {len(files)} files, "
          f"{len(findings)} finding(s)"
          + (f" [{tally}]" if tally else "")
          + (f", {len(suppressed)} suppressed" if suppressed else ""))

    if args.json_out:
        artifact = {
            "files": len(files),
            "findings": [dict(f.to_dict(), file=rel(f.file))
                         for f in sorted(findings, key=lambda f: (f.file, f.line))],
            "suppressed": [dict(f.to_dict(), file=rel(f.file))
                           for f in sorted(suppressed, key=lambda f: (f.file, f.line))],
        }
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump(artifact, out, indent=2)
            out.write("\n")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
