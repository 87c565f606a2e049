"""Validation findings and reports.

Validators never raise on bad data; they collect findings with a severity so
callers can decide what is fatal. A finding names its file ("" for none), set
by the Report that adds or takes it in. The machine-readable rendering is one
line per finding: SEVERITY<TAB>file<TAB>location<TAB>message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"
    INFO = "INFO"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    location: str
    message: str
    file: str = ""

    def machine_line(self) -> str:
        return "\t".join([self.severity.value, self.file, self.location, self.message])

    def human_line(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        line = f"{self.severity.value}{loc}: {self.message}"
        return f"{self.file}: {line}" if self.file else line


@dataclass
class Report:
    file: str = ""
    findings: list[Finding] = field(default_factory=list)

    def add(self, severity: Severity, location: str, message: str) -> None:
        self.findings.append(Finding(severity, location, message, self.file))

    def error(self, location: str, message: str) -> None:
        self.add(Severity.ERROR, location, message)

    def warning(self, location: str, message: str) -> None:
        self.add(Severity.WARNING, location, message)

    def info(self, location: str, message: str) -> None:
        self.add(Severity.INFO, location, message)

    def extend(self, other: "Report") -> None:
        for f in other.findings:
            self.add(f.severity, f.location, f.message)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]
