"""Finding model + suppression bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str
    suppressed: bool = False
    suppress_reason: str = ""

    def to_dict(self) -> dict:
        d = {
            "check": self.check,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }
        if self.suppressed:
            d["suppressed"] = True
            d["reason"] = self.suppress_reason
        return d


@dataclass
class Suppression:
    check: str
    reason: str
    line: int        # line of the GV_LINT_ALLOW token
    last_line: int   # last line of the macro call; applies through last_line+1
    used: bool = False

    def covers(self, check: str, line: int) -> bool:
        return check == self.check and self.line <= line <= self.last_line + 1


@dataclass
class FileReport:
    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)

    def apply_suppressions(self) -> None:
        for f in self.findings:
            for s in self.suppressions:
                if s.covers(f.check, f.line):
                    f.suppressed = True
                    f.suppress_reason = s.reason
                    s.used = True
                    break
