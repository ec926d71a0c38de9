"""The five VaultLint checks, implemented over the token stream.

This is VaultLint's only analysis engine: deterministic, zero-dependency,
and honest about being a lexer-level approximation — every heuristic it
relies on is a repo-wide convention (member names end in ``_``, guards are
gv::MutexLock / gv::ReaderLock, a mutex's rank is the brace initializer of
its gv::Mutex / gv::SharedMutex declaration, annotations sit adjacent to the
declared name).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from . import CHECKS
from .lexer import ID, NUM, PUNCT, STR, Token, lex, match_brace, match_paren, string_value
from .model import FileReport, Finding, Suppression

GUARD_NAMES = {"lock_guard", "unique_lock", "shared_lock", "scoped_lock", "MutexLock",
               "ReaderLock"}
MUTEX_TYPES = {"Mutex", "SharedMutex"}
LOG_SINKS = {"GV_LOG_INFO", "GV_LOG_WARN", "GV_LOG_ERROR", "GV_LOG_DEBUG"}
# Method-call sinks: `.name(` / `->name(` hands data to untrusted telemetry
# or an unattested channel.
METHOD_SINKS = {
    "arg": "TraceSpan argument",
    "counter": "MetricsRegistry name/labels",
    "gauge": "MetricsRegistry name/labels",
    "histogram": "MetricsRegistry name/labels",
    "trip": "FlightRecorder detail",
    "emit": "TraceRecorder event",
    "push": "raw (unattested) channel push",
}
# std:: members that make an ecall-ABI struct non-trivially-copyable or give
# it host-heap indirection.
BANNED_ABI_TYPES = {
    "string", "vector", "unique_ptr", "shared_ptr", "weak_ptr", "function",
    "map", "unordered_map", "set", "unordered_set", "list", "deque",
    "mutex", "condition_variable", "future", "promise", "thread", "any",
}


@dataclass
class FileFacts:
    path: str
    tokens: list[Token]
    secret_names: set[str] = field(default_factory=set)   # fields/vars
    secret_types: set[str] = field(default_factory=set)
    secret_functions: set[str] = field(default_factory=set)
    boundary_functions: set[str] = field(default_factory=set)
    member_ranks: dict[str, int] = field(default_factory=dict)


def _prev(tokens: list[Token], i: int) -> Token | None:
    return tokens[i - 1] if i > 0 else None


def _nxt(tokens: list[Token], i: int) -> Token | None:
    return tokens[i + 1] if i + 1 < len(tokens) else None


class Analysis:
    """Two-phase run: collect repo-wide facts, then check each file."""

    def __init__(self, files: list[str], rank_table_file: str | None = None):
        self.files = files
        self.facts: dict[str, FileFacts] = {}
        self.rank_table: dict[str, int] = {}
        self.reports: list[FileReport] = []
        self._all_secret_names: set[str] = set()
        self._all_secret_types: set[str] = set()
        self._all_secret_functions: set[str] = set()
        self._rank_table_file = rank_table_file

    # ---------------------------------------------------------------- phase 1
    def collect(self) -> None:
        paths = list(self.files)
        if self._rank_table_file and self._rank_table_file not in paths:
            paths.append(self._rank_table_file)
        for path in paths:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
            except OSError:
                continue
            ff = FileFacts(path=path, tokens=lex(text))
            self._collect_rank_table(ff)
            self.facts[path] = ff
        # Second pass: mutex declarations resolve their rank constants
        # against the now-complete rank table, wherever in the file set it
        # was declared.
        for ff in self.facts.values():
            self._collect_annotations(ff)
            self._collect_mutex_ranks(ff)
        for ff in self.facts.values():
            self._all_secret_names |= ff.secret_names
            self._all_secret_types |= ff.secret_types
            self._all_secret_functions |= ff.secret_functions

    def _collect_rank_table(self, ff: FileFacts) -> None:
        # inline constexpr int kName = N;
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind != ID or t.value != "constexpr":
                continue
            if i + 4 < len(toks) and toks[i + 1].value == "int" \
                    and toks[i + 2].kind == ID and toks[i + 3].value == "=" \
                    and toks[i + 4].kind == NUM:
                try:
                    self.rank_table[toks[i + 2].value] = int(toks[i + 4].value)
                except ValueError:
                    pass

    def _collect_annotations(self, ff: FileFacts) -> None:
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind != ID:
                continue
            if t.value == "GV_SECRET":
                self._classify_secret(ff, i)
            elif t.value == "GV_BOUNDARY_OK":
                name = self._enclosing_function_name(toks, i)
                if name:
                    ff.boundary_functions.add(name)

    def _collect_mutex_ranks(self, ff: FileFacts) -> None:
        """``Mutex name{rank}`` and ``name = make_unique<Mutex>(rank)``."""
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind != ID or t.value not in MUTEX_TYPES or i + 2 >= len(toks):
                continue
            # Mutex name{rank}
            if toks[i + 1].kind == ID and toks[i + 2].value == "{":
                rank = self._rank_in(toks, i + 2, match_brace(toks, i + 2))
                if rank is not None:
                    ff.member_ranks[toks[i + 1].value] = rank
                continue
            # name = std::make_unique<Mutex>(rank)
            if i >= 2 and toks[i - 1].value == "<" \
                    and toks[i - 2].value == "make_unique" \
                    and toks[i + 1].value == ">" and toks[i + 2].value == "(":
                rank = self._rank_in(toks, i + 2, match_paren(toks, i + 2))
                k = i - 3
                while k > 0 and toks[k].value != "=" and toks[k].value != ";":
                    k -= 1
                if rank is not None and k > 0 and toks[k].value == "=" \
                        and toks[k - 1].kind == ID:
                    ff.member_ranks[toks[k - 1].value] = rank

    def _rank_in(self, toks: list[Token], open_idx: int,
                 close: int) -> int | None:
        """Rank value between brackets: last id constant or number."""
        rank = None
        for k in range(open_idx + 1, close):
            if toks[k].kind == ID and toks[k].value in self.rank_table:
                rank = self.rank_table[toks[k].value]
            elif toks[k].kind == NUM and rank is None:
                try:
                    rank = int(toks[k].value)
                except ValueError:
                    pass
        return rank

    def _classify_secret(self, ff: FileFacts, i: int) -> None:
        toks = ff.tokens
        prev = _prev(toks, i)
        nxt = _nxt(toks, i)
        # struct/class GV_SECRET Name  -> secret type
        if prev is not None and prev.value in ("struct", "class") \
                and nxt is not None and nxt.kind == ID:
            ff.secret_types.add(nxt.value)
            return
        # using Alias GV_SECRET = ...  -> secret type
        if prev is not None and prev.kind == ID and i >= 2 \
                and toks[i - 2].value == "using":
            ff.secret_types.add(prev.value)
            return
        # ...) const GV_SECRET  /  ...) GV_SECRET  -> secret-returning function
        back = i - 1
        if back >= 0 and toks[back].value == "const":
            back -= 1
        if back >= 0 and toks[back].value == ")":
            name = self._enclosing_function_name(toks, i)
            if name:
                ff.secret_functions.add(name)
            return
        # Leading on a declaration: GV_SECRET <type...> name [= / { / ;]
        j = i + 1
        depth_angle = 0
        last_id = None
        while j < len(toks):
            t = toks[j]
            if t.kind == PUNCT:
                if t.value == "<":
                    depth_angle += 1
                elif t.value == ">":
                    depth_angle = max(0, depth_angle - 1)
                elif t.value == ">>":
                    # nested template close; the lexer emits the shift token
                    depth_angle = max(0, depth_angle - 2)
                elif t.value == ";":
                    break  # declarations never carry ';' inside template args
                elif depth_angle == 0 and t.value in ("=", "{", "("):
                    break
            elif t.kind == ID:
                last_id = t.value
            j += 1
        if last_id:
            ff.secret_names.add(last_id)

    @staticmethod
    def _enclosing_function_name(toks: list[Token], i: int) -> str | None:
        """Name of the function whose parameter-list ``)`` precedes token i."""
        back = i - 1
        while back >= 0 and toks[back].value in ("const", "noexcept", "override"):
            back -= 1
        if back < 0 or toks[back].value != ")":
            return None
        depth = 0
        for k in range(back, -1, -1):
            v = toks[k].value
            if v == ")":
                depth += 1
            elif v == "(":
                depth -= 1
                if depth == 0:
                    return toks[k - 1].value if k > 0 and toks[k - 1].kind == ID else None
        return None

    # ---------------------------------------------------------------- phase 2
    def run(self) -> list[FileReport]:
        self.collect()
        for path in self.files:
            ff = self.facts.get(path)
            if ff is None:
                continue
            report = FileReport(path=path)
            self._check_suppressions(ff, report)
            self._check_secret_egress(ff, report)
            self._check_ecall_abi(ff, report)
            self._check_lock_rank(ff, report)
            self.reports.append(report)
        self._check_channel_kinds()
        for r in self.reports:
            r.apply_suppressions()
        return self.reports

    # -- suppression hygiene --------------------------------------------------
    def _check_suppressions(self, ff: FileFacts, report: FileReport) -> None:
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind != ID or t.value != "GV_LINT_ALLOW":
                continue
            j = i + 1
            if j >= len(toks) or toks[j].value != "(":
                continue
            close = match_paren(toks, j)
            strs = [tok for tok in toks[j + 1 : close] if tok.kind == STR]
            check = string_value(strs[0]) if strs else ""
            reason = string_value(strs[1]) if len(strs) > 1 else ""
            last_line = toks[close].line if close < len(toks) else t.line
            if check not in CHECKS:
                report.findings.append(Finding(
                    "suppression", ff.path, t.line,
                    f'GV_LINT_ALLOW names unknown check "{check}" '
                    f"(known: {', '.join(CHECKS)})"))
                continue
            if not reason.strip():
                report.findings.append(Finding(
                    "suppression", ff.path, t.line,
                    f'GV_LINT_ALLOW("{check}", ...) has an empty reason'))
                continue
            report.suppressions.append(
                Suppression(check=check, reason=reason, line=t.line,
                            last_line=last_line))

    # -- secret egress --------------------------------------------------------
    def _is_secret_use(self, toks: list[Token], k: int, local_secrets: set[str]) -> str | None:
        t = toks[k]
        if t.kind != ID:
            return None
        prev = _prev(toks, k)
        accessed = prev is not None and prev.value in (".", "->")
        nxt = _nxt(toks, k)
        calls = nxt is not None and nxt.value == "("
        if t.value in self._all_secret_functions and calls:
            return f"call to secret-returning function {t.value}()"
        if t.value in self._all_secret_names:
            # Member access (x.labels) always counts; a bare identifier only
            # when it follows the member `_` suffix convention or is a local
            # declared with a secret type in this file — plain parameters that
            # happen to share a name (e.g. `labels`) do not.
            if accessed or t.value.endswith("_") or t.value in local_secrets:
                return f"secret value {t.value}"
        if t.value in local_secrets and not accessed:
            return f"value {t.value} of secret type"
        return None

    def _local_secret_vars(self, ff: FileFacts) -> set[str]:
        """Vars declared with a GV_SECRET-marked type anywhere in this file."""
        out: set[str] = set()
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind == ID and t.value in self._all_secret_types:
                nxt = _nxt(toks, i)
                if nxt is not None and nxt.kind == ID:
                    after = _nxt(toks, i + 1)
                    if after is not None and after.value in (";", "=", "{", ",", ")"):
                        out.add(nxt.value)
        return out

    def _check_secret_egress(self, ff: FileFacts, report: FileReport) -> None:
        toks = ff.tokens
        local_secrets = self._local_secret_vars(ff)
        i = 0
        while i < len(toks):
            t = toks[i]
            sink = None
            rng = None
            if t.kind == ID and t.value in LOG_SINKS:
                j = i + 1
                while j < len(toks) and toks[j].value != ";":
                    j += 1
                sink, rng = f"{t.value} stream", (i + 1, j)
            elif t.kind == ID and t.value in METHOD_SINKS:
                prev = _prev(toks, i)
                nxt = _nxt(toks, i)
                if prev is not None and prev.value in (".", "->") \
                        and nxt is not None and nxt.value == "(":
                    close = match_paren(toks, i + 1)
                    sink, rng = METHOD_SINKS[t.value], (i + 2, close)
            elif t.kind == ID and t.value == "TraceSpan":
                nxt = _nxt(toks, i)
                k = i + 1
                if nxt is not None and nxt.kind == ID:
                    k = i + 2
                if k < len(toks) and toks[k].value == "(":
                    close = match_paren(toks, k)
                    sink, rng = "TraceSpan argument", (k + 1, close)
            if sink is not None and rng is not None:
                for k in range(rng[0], rng[1]):
                    what = self._is_secret_use(toks, k, local_secrets)
                    if what:
                        report.findings.append(Finding(
                            "secret-egress", ff.path, toks[k].line,
                            f"{what} reaches untrusted sink ({sink}); route it "
                            "through a GV_BOUNDARY_OK seal/attested-channel API "
                            "or suppress with a justification"))
                        break  # one finding per sink expression
                i = rng[1]
                continue
            i += 1

    # -- ecall ABI ------------------------------------------------------------
    def _check_ecall_abi(self, ff: FileFacts, report: FileReport) -> None:
        toks = ff.tokens
        for i, t in enumerate(toks):
            if t.kind != ID or t.value != "GV_ECALL_ABI":
                continue
            prev = _prev(toks, i)
            nxt = _nxt(toks, i)
            if prev is None or prev.value not in ("struct", "class") \
                    or nxt is None or nxt.kind != ID:
                continue
            name = nxt.value
            j = i + 2
            while j < len(toks) and toks[j].value not in ("{", ";"):
                j += 1
            if j >= len(toks) or toks[j].value != "{":
                continue
            close = match_brace(toks, j)
            self._check_abi_body(ff, report, name, toks, j + 1, close)

    def _check_abi_body(self, ff: FileFacts, report: FileReport, name: str,
                        toks: list[Token], lo: int, hi: int) -> None:
        # Walk member declarations (split on ';' at depth 0 within the body);
        # methods (a '(' before the first '=' or ';') are not marshaled and
        # are skipped.
        start = lo
        depth = 0
        k = lo
        while k < hi:
            v = toks[k].value
            if v in ("{", "("):
                depth += 1
            elif v in ("}", ")"):
                depth -= 1
            elif v == ";" and depth == 0:
                self._check_abi_member(ff, report, name, toks, start, k)
                start = k + 1
            k += 1

    def _check_abi_member(self, ff: FileFacts, report: FileReport, name: str,
                          toks: list[Token], lo: int, hi: int) -> None:
        decl = toks[lo:hi]
        if not decl:
            return
        # Method, using-alias, or nested type: not a marshaled field.
        first_stop = next((i for i, t in enumerate(decl)
                           if t.value in ("(", "=", "{")), len(decl))
        if first_stop < len(decl) and decl[first_stop].value == "(":
            return
        if decl[0].value in ("using", "typedef", "struct", "class", "enum",
                             "static", "friend"):
            return
        line = decl[0].line
        for i, t in enumerate(decl):
            if t.kind == PUNCT and t.value in ("*", "&"):
                report.findings.append(Finding(
                    "ecall-abi", ff.path, t.line,
                    f"GV_ECALL_ABI struct {name} has a pointer/reference "
                    "member — host addresses must not cross the enclave ABI"))
                return
            if t.kind == ID and t.value in BANNED_ABI_TYPES and i >= 2 \
                    and decl[i - 1].value == "::" and decl[i - 2].value == "std":
                report.findings.append(Finding(
                    "ecall-abi", ff.path, line,
                    f"GV_ECALL_ABI struct {name} has a std::{t.value} member — "
                    "not trivially copyable, cannot be EDL-marshaled by value"))
                return

    # -- lock rank ------------------------------------------------------------
    def _rank_for_mutex(self, ff: FileFacts, mutex: str) -> int | None:
        if mutex in ff.member_ranks:
            return ff.member_ranks[mutex]
        stem = os.path.splitext(ff.path)[0]
        for ext in (".hpp", ".h"):
            other = self.facts.get(stem + ext)
            if other and mutex in other.member_ranks:
                return other.member_ranks[mutex]
        hits = {f.member_ranks[mutex] for f in self.facts.values()
                if mutex in f.member_ranks}
        return hits.pop() if len(hits) == 1 else None

    def _check_lock_rank(self, ff: FileFacts, report: FileReport) -> None:
        toks = ff.tokens
        depth = 0
        held: list[tuple[int, int, str]] = []  # (depth_at_push, rank, what)
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == PUNCT:
                if t.value == "{":
                    depth += 1
                elif t.value == "}":
                    depth -= 1
                    while held and held[-1][0] > depth:
                        held.pop()
                i += 1
                continue
            if t.kind != ID or t.value not in GUARD_NAMES:
                i += 1
                continue
            # A guard variable: guard<...> name(expr) / MutexLock name(expr).
            # Anything else naming the guard type (its own constructors,
            # operator=) is not an acquisition.
            j = i + 1
            if j < len(toks) and toks[j].value == "<":
                angle = 0
                while j < len(toks):
                    v = toks[j].value
                    if v == "<":
                        angle += 1
                    elif v == ">":
                        angle -= 1
                    elif v == ">>":
                        angle -= 2
                    elif v in (";", "{", "}"):
                        break
                    j += 1
                    if angle <= 0:
                        break
            if j + 1 >= len(toks) or toks[j].kind != ID \
                    or toks[j + 1].value != "(":
                i += 1
                continue
            close = match_paren(toks, j + 1)
            args = [a for a in toks[j + 2 : close] if a.kind == ID]
            i = close + 1
            if not args:
                continue
            mutex = args[-1].value
            rank = self._rank_for_mutex(ff, mutex)
            what = f"{t.value}({mutex})"
            if rank is None:
                report.findings.append(Finding(
                    "lock-rank", ff.path, t.line,
                    f"{what}: no gv::lockrank rank found for mutex "
                    f"'{mutex}' — declare it as Mutex {mutex}{{rank}} or "
                    "make_unique<Mutex>(rank)"))
                continue
            if held and rank < held[-1][1]:
                report.findings.append(Finding(
                    "lock-rank", ff.path, t.line,
                    f"{what} acquires rank {rank} while rank {held[-1][1]} "
                    f"({held[-1][2]}) is held — lock-order inversion against "
                    "the gv::lockrank table"))
                # Do NOT push the violating (lower) rank: the held maximum
                # stays authoritative, so later acquisitions below it are
                # still flagged instead of hiding behind the first bug.
            else:
                held.append((depth, rank, what))

    # -- channel kinds (cross-file) -------------------------------------------
    def _check_channel_kinds(self) -> None:
        enums: list[tuple[FileFacts, int, list[str]]] = []  # (file, line, names)
        for ff in self.facts.values():
            toks = ff.tokens
            for i, t in enumerate(toks):
                if t.kind == ID and t.value == "PayloadKind" and i >= 2 \
                        and toks[i - 1].value == "class" \
                        and toks[i - 2].value == "enum":
                    j = i + 1
                    while j < len(toks) and toks[j].value not in ("{", ";"):
                        j += 1
                    if j >= len(toks) or toks[j].value != "{":
                        continue
                    close = match_brace(toks, j)
                    names = []
                    k = j + 1
                    while k < close:
                        if toks[k].kind == ID:
                            names.append(toks[k].value)
                            # skip to next ',' at depth 0
                            while k < close and toks[k].value != ",":
                                k += 1
                        k += 1
                    enums.append((ff, t.line, names))
        if not enums:
            return
        sites = {
            "kKindPolicies": "a pad-policy row in kKindPolicies",
            "kind_name": "a kind_name() switch case",
            "kind_bytes": "a kind_bytes() byte-audit case",
        }
        for enum_ff, enum_line, names in enums:
            # A PayloadKind enum's machinery may live in the same file or in
            # the paired .cpp/.hpp; search the whole analyzed set.
            for site, describe in sites.items():
                covered: set[str] = set()
                found_site = False
                for ff in self.facts.values():
                    rng = self._site_range(ff.tokens, site)
                    if rng is None:
                        continue
                    found_site = True
                    covered |= self._kinds_in_range(ff.tokens, *rng)
                report = self._report_for(enum_ff.path)
                if not found_site:
                    report.findings.append(Finding(
                        "channel-kind", enum_ff.path, enum_line,
                        f"PayloadKind has no {site} definition in the analyzed "
                        "set — every enumerator needs " + describe))
                    continue
                for name in names:
                    if name not in covered:
                        report.findings.append(Finding(
                            "channel-kind", enum_ff.path, enum_line,
                            f"PayloadKind::{name} is missing {describe}"))

    def _report_for(self, path: str) -> FileReport:
        for r in self.reports:
            if r.path == path:
                return r
        r = FileReport(path=path)
        self.reports.append(r)
        return r

    @staticmethod
    def _site_range(toks: list[Token], site: str) -> tuple[int, int] | None:
        for i, t in enumerate(toks):
            if t.kind != ID or t.value != site:
                continue
            if site == "kKindPolicies":
                # ... kKindPolicies{{ ... }};  (skip mere uses: need a '{'
                # before the next ';')
                j = i + 1
                while j < len(toks) and toks[j].value not in ("{", ";"):
                    j += 1
                if j < len(toks) and toks[j].value == "{":
                    return (j, match_brace(toks, j))
            else:
                # function DEFINITION: name(...) [const...] {body}
                j = i + 1
                if j < len(toks) and toks[j].value == "(":
                    j = match_paren(toks, j) + 1
                    while j < len(toks) and toks[j].value in ("const", "noexcept"):
                        j += 1
                    if j < len(toks) and toks[j].value == "{":
                        return (j, match_brace(toks, j))
        return None

    @staticmethod
    def _kinds_in_range(toks: list[Token], lo: int, hi: int) -> set[str]:
        out: set[str] = set()
        for k in range(lo, hi):
            if toks[k].kind == ID and toks[k].value == "PayloadKind" \
                    and k + 2 < hi and toks[k + 1].value == "::":
                out.add(toks[k + 2].value)
        return out
