"""Deterministic CSV and JSON emission for sweep and verification reports.

Every emitted document carries the full run configuration in a header
block, so identical configurations rerun to byte-identical output. CSV
uses a ``# key=value`` preamble followed by an RFC-4180-style table with
'.' decimals and 'e' exponents; JSON is a single object with ``config``,
``cells`` and ``summary`` members.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

from . import __version__


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Report:
    config: dict = field(default_factory=dict)
    columns: tuple = ()
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# flowtree={__version__}\n")
        for key in sorted(self.config):
            out.write(f"# {key}={_fmt(self.config[key])}\n")
        for key in sorted(self.summary):
            out.write(f"# summary.{key}={_fmt(self.summary[key])}\n")
        out.write(",".join(self.columns) + "\r\n")
        for row in self.rows:
            out.write(",".join(_fmt(v) for v in row) + "\r\n")
        return out.getvalue()

    def to_json(self) -> str:
        cells = [dict(zip(self.columns, row)) for row in self.rows]
        doc = {
            "config": {"flowtree": __version__, **self.config},
            "cells": cells,
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown output format {fmt!r}")
