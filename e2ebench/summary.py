"""Span export and the per-layer self-time table.

Usage::

    python3 e2ebench/summary.py e2ebench/out/spans-carrefour.json

prints, for one exported traced run, every span name with the module it
wraps, its calls, its self time and that time's share of the traced
passes, sorted by self time. ``bench.*`` rows are the harness passes
themselves: their self time is the program time no wrapped layer covers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from layers import TARGETS, self_times

#: Span name -> the layer (module) whose functions it wraps. A name
#: wrapping several bindings takes the first, which is the defining
#: module; the per-scenario ``assemble`` functions share one layer.
MODULE_OF: Dict[str, str] = {}
for _owner, _attr, _name, _count in TARGETS:
    _module = _owner.partition(":")[0]
    if _module.startswith("repro.experiments."):
        _module = "repro.experiments"
    MODULE_OF.setdefault(_name, _module)

FIELDS = ("name", "start_s", "end_s", "parent", "tag")


def export(spans: Sequence[list], workload: str, host: Dict[str, object]) -> Dict[str, object]:
    """A JSON-ready span dump; names and tags are indices into tables.

    Times are seconds from the first span's start; ``parent`` is the
    index of the enclosing span (-1 for a root pass) and ``tag`` indexes
    ``tags`` (the request cache key or batch group; -1 for none).
    """
    origin = spans[0][1] if spans else 0.0
    names: Dict[str, int] = {}
    tags: Dict[str, int] = {}
    rows = []
    for name, start, end, parent, tag in spans:
        rows.append(
            [
                names.setdefault(name, len(names)),
                start - origin,
                end - origin,
                parent,
                -1 if tag is None else tags.setdefault(tag, len(tags)),
            ]
        )
    return {
        "workload": workload,
        "host": host,
        "fields": list(FIELDS),
        "names": list(names),
        "tags": list(tags),
        "spans": rows,
    }


def load(path: Path) -> List[list]:
    """Spans of an exported file, back in ``[name, start, end, parent, tag]`` form."""
    payload = json.loads(Path(path).read_text())
    names, tags = payload["names"], payload["tags"]
    return [
        [names[n], start, end, parent, None if t < 0 else tags[t]]
        for n, start, end, parent, t in payload["spans"]
    ]


def format_table(spans: Sequence[list]) -> str:
    agg = self_times(spans)
    total = sum(end - start for _n, start, end, parent, _t in spans if parent < 0)
    lines = [f"{'span':32s} {'module':28s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
    for name, (self_s, calls) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
        module = MODULE_OF.get(name, "harness")
        share = self_s / total if total else 0.0
        lines.append(f"{name:32s} {module:28s} {calls:9d} {self_s:10.4f} {share:7.1%}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(format_table(load(Path(argv[0]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
