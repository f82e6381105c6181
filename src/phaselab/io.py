"""Snapshot persistence and CSV emission.

Snapshots are versioned structured text.  Values are stored as hexadecimal
floats (bit-exact round trip) with decimal mirrors for human inspection.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import Field
from .grids import Grid
from .nodal import DecayFit, NodalSet, nodal_distance
from .reports import ExperimentReport, canonicalize
from .solvers import FlowTrace

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "load_snapshot_with_meta",
    "emit_plotdata",
    "SnapshotError",
    "UnsupportedSnapshotVersion",
    "CorruptSnapshotError",
]

SNAPSHOT_NAME = "phaselab-snapshot"
SNAPSHOT_VERSION = 1
# per grid kind: the snapshot label of its lengths, the CSV names of its coordinates
LABELS = {
    "interval": ("half_length", "x"),
    "circle": ("circumference", "theta"),
    "torus": ("circumferences", "theta,y"),
}


class SnapshotError(ValueError):
    pass


class UnsupportedSnapshotVersion(SnapshotError):
    pass


class CorruptSnapshotError(SnapshotError):
    pass


def save_snapshot(f: Field, path, potential: dict | None = None) -> None:
    """Write ``f`` and the potential's description as a snapshot file.

    The header's ``config:`` line is always ``-``; the reader still parses
    it and returns it as ``meta["config_hash"]``.
    """
    g = f.grid
    lines = [f"{SNAPSHOT_NAME} {SNAPSHOT_VERSION}"]
    lines.append(
        f"grid: {g.kind} {' '.join(str(n) for n in g.shape)} {' '.join(L.hex() for L in g.lengths)} "
        f"# {LABELS[g.kind][0]} {' '.join(repr(L) for L in g.lengths)}"
    )
    lines.append(f"epsilon: {float(f.epsilon).hex()} # {float(f.epsilon)!r}")
    lines.append("potential: " + json.dumps(canonicalize(potential) if potential else None, sort_keys=True))
    lines.append("config: -")
    flat = f.values.ravel()
    lines.append(f"values: {flat.size}")
    lines += [f"{x.hex()} {x!r}" for x in flat.tolist()]  # Python floats, not numpy scalars
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_header_line(lines, i, key, parse=str, comment=True):
    """The body of header line ``i``, which must start ``key:``, passed through
    ``parse``; a missing line or a body ``parse`` rejects is corrupt."""
    if i >= len(lines) or not lines[i].startswith(key + ":"):
        raise CorruptSnapshotError(f"missing '{key}:' line in snapshot header")
    body = lines[i][len(key) + 1 :]
    body = (body.split("#", 1)[0] if comment else body).strip()
    try:
        return parse(body)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise CorruptSnapshotError(f"bad '{key}:' line {body!r}: {exc}") from None


def load_snapshot_with_meta(path):
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CorruptSnapshotError("empty snapshot file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != SNAPSHOT_NAME:
        raise CorruptSnapshotError(f"not a {SNAPSHOT_NAME} file: {lines[0]!r}")
    if not head[1].isdigit():
        raise CorruptSnapshotError(f"bad snapshot version {head[1]!r}")
    version = int(head[1])
    if version != SNAPSHOT_VERSION:
        raise UnsupportedSnapshotVersion(
            f"snapshot version {version} unsupported; this build reads version {SNAPSHOT_VERSION}"
        )

    grid_line = _parse_header_line(lines, 1, "grid")
    try:
        kind, *body = grid_line.split()
        k = len(body) // 2
        if not body or 2 * k != len(body):
            raise ValueError("expected one point count and one length per axis")
        shape = [int(x) for x in body[:k]]
        lengths = [float.fromhex(x) for x in body[k:]]
        grid = Grid(kind, shape, lengths)
    except (ValueError, TypeError) as exc:
        raise CorruptSnapshotError(f"bad grid line {grid_line!r}: {exc}") from None

    epsilon = _parse_header_line(lines, 2, "epsilon", float.fromhex)
    # the potential's JSON may hold a '#', so the line has no comment to strip
    potential = _parse_header_line(lines, 3, "potential", json.loads, comment=False)
    config_hash = _parse_header_line(lines, 4, "config")

    expected = _parse_header_line(lines, 5, "values", int)
    value_lines = lines[6:]
    if len(value_lines) != expected:
        raise CorruptSnapshotError(
            f"value count mismatch: expected {expected} values, found {len(value_lines)}"
        )
    if expected != grid.npoints:
        raise CorruptSnapshotError(
            f"value count {expected} does not match grid size {grid.npoints}"
        )
    try:  # a bad value line, or an epsilon that Field rejects
        vals = np.array([float.fromhex(ln.split(None, 1)[0]) for ln in value_lines])
        field = Field(grid, vals.reshape(grid.shape), epsilon)
    except ValueError as exc:
        raise CorruptSnapshotError(f"bad values or epsilon: {exc}") from None
    meta = {"potential": potential, "config_hash": config_hash, "version": version}
    return field, meta


def load_snapshot(path) -> Field:
    field, _ = load_snapshot_with_meta(path)
    return field


# ---------------------------------------------------------------------------
# CSV emission


def emit_plotdata(obj, path) -> None:
    """Write plain CSV for external plotting tools.

    Fields become coordinate/value rows, decay fits distance/log-gap/fitted
    rows (with the fitted constants in a comment header), flow traces
    step/energy(/angles) rows, experiment reports one census row per run.
    """
    path = Path(path)
    if isinstance(obj, Field):
        _emit_field(obj, path)
    elif isinstance(obj, DecayFit):
        raise TypeError("decay fits need the field for distances; pass (fit, field, nodal_set)")
    elif isinstance(obj, tuple) and len(obj) == 3 and isinstance(obj[0], DecayFit):
        _emit_decay(obj[0], obj[1], obj[2], path)
    elif isinstance(obj, FlowTrace):
        _emit_trace(obj, path)
    elif isinstance(obj, ExperimentReport):
        _emit_report(obj, path)
    elif isinstance(obj, NodalSet):
        _emit_nodal(obj, path)
    else:
        raise TypeError(f"no CSV emitter for {type(obj).__name__}")


def _num(x) -> str:
    """One numeric CSV cell: the shortest round-trip decimal of a Python float."""
    return repr(float(x))


def _emit_field(f: Field, path: Path) -> None:
    g = f.grid
    axes = np.meshgrid(*(g.axis(i) for i in range(len(g.shape))), indexing="ij")
    cols = [c.ravel() for c in axes] + [f.values.ravel()]
    rows = [f"{LABELS[g.kind][1]},value"]
    rows += [",".join(_num(x) for x in row) for row in zip(*cols)]
    path.write_text("\n".join(rows) + "\n")


def _emit_decay(fit: DecayFit, f: Field, ns, path: Path) -> None:
    d = nodal_distance(f, ns)
    gap = np.abs(f.values**2 - 1.0)
    rows = [
        f"# amplitude={_num(fit.amplitude)} kappa={_num(fit.kappa)} rms_residual={_num(fit.rms_residual)}",
        "distance,log_gap,fitted",
    ]
    logC = np.log(fit.amplitude)
    for di, gi in zip(d, gap):
        lg = _num(np.log(gi)) if gi > 0 else ""
        rows.append(f"{_num(di)},{lg},{_num(logC - fit.kappa * di)}")
    path.write_text("\n".join(rows) + "\n")


def _emit_trace(trace: FlowTrace, path: Path) -> None:
    if trace.angle_samples:
        width = max(len(a) for _, a in trace.angle_samples)
        header = "step,energy," + ",".join(f"angle{i}" for i in range(width))
        rows = [header]
        for step, angles in trace.angle_samples:
            cells = [_num(a) for a in angles] + [""] * (width - len(angles))
            rows.append(f"{step},{_num(trace.energies[step])}," + ",".join(cells))
    else:
        rows = ["step,energy"]
        for i, e in enumerate(trace.energies):
            rows.append(f"{i},{_num(e)}")
    path.write_text("\n".join(rows) + "\n")


def _emit_report(report: ExperimentReport, path: Path) -> None:
    keys = sorted({k for r in report.runs for k in r})
    rows = [",".join(keys)]
    for r in report.runs:
        cells = []
        for k in keys:
            v = r.get(k)
            if v is None:
                cells.append("")
            elif isinstance(v, (float, np.floating)):
                cells.append(_num(v))
            elif isinstance(v, (list, tuple)):
                cells.append('"' + ";".join(_num(x) for x in v) + '"')
            else:
                cells.append(str(v))
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def _emit_nodal(ns: NodalSet, path: Path) -> None:
    if ns.points is not None:
        rows = [f"{LABELS[ns.kind][1]},sign,axis"]
        for pt, s, ax in zip(ns.points, ns.point_signs, ns.point_axes):
            rows.append(",".join(_num(x) for x in pt) + f",{int(s)},{int(ax)}")
    else:
        rows = ["position,direction"]
        for a, d in zip(ns.angles, ns.directions):
            rows.append(f"{_num(a)},{int(d)}")
    path.write_text("\n".join(rows) + "\n")
