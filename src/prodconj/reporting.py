"""Residual accumulation and report rows."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
ERROR = "error"


def _worse(a: float, b: float) -> bool:
    """Whether residual a is worse than b; NaN is worse than any number."""
    return a > b or (math.isnan(a) and not math.isnan(b))


@dataclass
class Residual:
    """Worst absolute residual over a sample batch, with its witness."""

    value: float
    worst_point: tuple[float, ...] | None = None
    frame: str | None = None

    def within(self, tol: float) -> bool:
        """Whether the residual is at most tol; false on NaN, so gates fail closed."""
        return self.value <= tol

    def merged(self, other: "Residual") -> "Residual":
        """The worse of two residuals, witness included.  A tie keeps self and
        a NaN beats any number, so a left-to-right fold keeps the first
        maximum and the first NaN."""
        return other if _worse(other.value, self.value) else self


@dataclass
class CheckRow:
    """One report record: a single residual judged against a tolerance."""

    row_id: str
    anchor: str
    residual: float
    status: str
    worst_point: tuple[float, ...] | None = None
    frame: str | None = None
    note: str = ""

    @staticmethod
    def judged(row_id: str, anchor: str, res: Residual, tol: float,
               note: str = "") -> "CheckRow":
        """Pass within tol, fail beyond it; a non-finite residual is an error."""
        if not math.isfinite(res.value):
            status = ERROR
        else:
            status = PASS if res.within(tol) else FAIL
        return CheckRow(row_id, anchor, res.value, status,
                        res.worst_point, res.frame, note)


@dataclass
class Report:
    """All rows of one scenario run, plus the inputs that produced them."""

    scenario: str
    seed: int
    count: int
    rows: list[CheckRow] = field(default_factory=list)

    def sorted_rows(self) -> list[CheckRow]:
        return sorted(self.rows, key=lambda r: r.row_id)

    @property
    def failed(self) -> bool:
        return any(r.status in (FAIL, ERROR) for r in self.rows)

    def render_lines(self) -> list[str]:
        """Deterministic serialization: 4 tab-separated fields per record.

        Witness data goes to '#' comment lines so the record grammar stays
        fixed; wall-time never appears (it would break run-to-run identity).
        """
        lines = [f"# scenario={self.scenario} seed={self.seed} samples={self.count}"]
        for r in self.sorted_rows():
            lines.append(f"{r.row_id}\t{r.anchor}\t{r.residual:.6e}\t{r.status}")
            where = "-" if r.worst_point is None else \
                "(" + ", ".join(f"{c:.12g}" for c in r.worst_point) + ")"
            lines.append(f"#   at={where} frame={r.frame or '-'} note={r.note or '-'}")
        npass = sum(r.status == PASS for r in self.rows)
        nfail = sum(r.status == FAIL for r in self.rows)
        nskip = sum(r.status == SKIP for r in self.rows)
        nerr = sum(r.status == ERROR for r in self.rows)
        lines.append(f"# summary pass={npass} fail={nfail} skip={nskip} error={nerr}")
        return lines
