"""Check records and deterministic machine-readable reports.

Reports are value objects: records sorted lexicographically, no timestamps,
so identical runs produce byte-identical JSON and CSV output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

TOOL_NAME = "rotquad"
TOOL_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckRecord:
    """One verified (or attempted) check."""

    name: str
    inputs: str
    relation: str
    values: tuple = ()
    status: str = PASS
    residual: float | None = None

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        object.__setattr__(self, "values", tuple(self.values))


def make_record(name, inputs, relation, values, ok, residual=None) -> CheckRecord:
    """ok True/False for pass/fail; ok None marks the check inconclusive."""
    status = INCONCLUSIVE if ok is None else (PASS if ok else FAIL)
    return CheckRecord(name, inputs, relation, tuple(values), status, residual)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


_encode = json.JSONEncoder().encode


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for keys
    that are str, int, float, bool or None.  The layout is made here and
    each leaf and key is encoded by the C encoder (a str as JSONEncoder
    encodes it): with an indent, json.dumps runs the pure-Python one."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [_dumps(v, inner) for v in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [_dumps(k if isinstance(k, str) else _encode(k)) + ": "
                                 + _dumps(v, inner) for k, v in sorted(value.items())]
    else:
        return _encode(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)
    config: dict | None = None

    def add(self, record: CheckRecord):
        self.records.append(record)

    def extend(self, records):
        self.records.extend(records)

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: (r.name, r.inputs))

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def failures(self) -> int:
        """Failed checks; inconclusive counts as failure, never as pass."""
        c = self.counts()
        return c[FAIL] + c[INCONCLUSIVE]

    def as_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "summary": self.counts(),
            "config": self.config,
            "records": [
                {
                    "name": r.name,
                    "inputs": r.inputs,
                    "relation": r.relation,
                    "values": [_fmt_value(v) for v in r.values],
                    "status": r.status,
                    "residual": r.residual,
                }
                for r in self.sorted_records()
            ],
        }

    def to_json(self) -> str:
        return _dumps(self.as_dict()) + "\n"

    def write_json(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "inputs", "relation", "values", "status", "residual"])
            for r in self.sorted_records():
                writer.writerow(
                    [
                        r.name,
                        r.inputs,
                        r.relation,
                        ";".join(_fmt_value(v) for v in r.values),
                        r.status,
                        "" if r.residual is None else repr(r.residual),
                    ]
                )
