"""Residual accumulation and report rows."""

from __future__ import annotations

import math
import sys
from collections import Counter

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
ERROR = "error"


def _worse(a: float, b: float) -> bool:
    """Whether residual a is worse than b; NaN is worse than any number."""
    return a > b or (math.isnan(a) and not math.isnan(b))


class Keyed:
    """A value: equal to an instance of its own class with an equal `_key`
    tuple; what the key leaves out, a label say, takes no part.  A class
    whose instances never change sets `_key` and `_hash` in `__init__`, so
    the hash is computed once; a record that may change reads `_key` as a
    property and has no hash."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and other._key == self._key

    def __hash__(self):
        return self._hash


class Residual(Keyed):
    """Worst absolute residual over a sample batch, with its witness."""

    __hash__ = None

    def __init__(self, value: float, worst_point: tuple[float, ...] | None = None,
                 frame: str | None = None):
        self.value = value
        self.worst_point = worst_point
        self.frame = frame

    @property
    def _key(self) -> tuple:
        return self.value, self.worst_point, self.frame

    def within(self, tol: float) -> bool:
        """Whether the residual is at most tol; false on NaN, so gates fail closed."""
        return self.value <= tol

    def merged(self, other: "Residual") -> "Residual":
        """The worse of two residuals, witness included.  A tie keeps self and
        a NaN beats any number, so a left-to-right fold keeps the first
        maximum and the first NaN."""
        return other if _worse(other.value, self.value) else self


class CheckRow(Keyed):
    """One report record: a single residual judged against a tolerance."""

    __hash__ = None

    def __init__(self, row_id: str, anchor: str, residual: float, status: str,
                 worst_point: tuple[float, ...] | None = None, frame: str | None = None,
                 note: str = ""):
        # Row ids repeat run after run; one shared string per id keeps a
        # caller that holds many runs' rows from holding a copy each.
        self.row_id = sys.intern(row_id)
        self.anchor = anchor
        self.residual = residual
        self.status = status
        self.worst_point = worst_point
        self.frame = frame
        self.note = note

    @property
    def _key(self) -> tuple:
        return (self.row_id, self.anchor, self.residual, self.status, self.worst_point,
                self.frame, self.note)


class Report:
    """All rows of one scenario run, plus the inputs that produced them."""

    def __init__(self, scenario: str, seed: int, count: int, rows: list[CheckRow] | None = None):
        self.scenario = scenario
        self.seed = seed
        self.count = count
        self.rows = [] if rows is None else rows

    def sorted_rows(self) -> list[CheckRow]:
        return sorted(self.rows, key=lambda r: r.row_id)

    @property
    def failed(self) -> bool:
        return any(r.status in (FAIL, ERROR) for r in self.rows)

    def render_lines(self) -> list[str]:
        """Deterministic serialization: 4 tab-separated fields per record.

        Witness data goes to '#' comment lines so the record grammar stays
        fixed; wall-time never appears (it would break run-to-run identity).
        Lines are interned: runs of one seed render the same lines, and a
        caller that keeps the lines of many runs then holds one string per
        distinct line, not one per run.
        """
        lines = [f"# scenario={self.scenario} seed={self.seed} samples={self.count}"]
        for r in self.sorted_rows():
            lines.append(f"{r.row_id}\t{r.anchor}\t{r.residual:.6e}\t{r.status}")
            where = "-" if r.worst_point is None else \
                "(" + ", ".join(f"{c:.12g}" for c in r.worst_point) + ")"
            lines.append(f"#   at={where} frame={r.frame or '-'} note={r.note or '-'}")
        n = Counter(r.status for r in self.rows)
        lines.append(f"# summary pass={n[PASS]} fail={n[FAIL]} skip={n[SKIP]} error={n[ERROR]}")
        return [sys.intern(line) for line in lines]
