"""Density curves: the common output record for simulation and closed forms.

A DensityCurve holds one or more named observables sampled on a shared
time grid, each point carrying (mean, stderr, n).  Monte Carlo points use
n = number of replicas (the independence unit for the standard error);
exact curves use stderr 0 and n = "exact".  Writers are deterministic:
same curve, same bytes.  The CSV header line carries the run metadata as
a JSON comment, and no writer embeds timestamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

from .exppoly import ExpPoly, _comma_list

CSV_COLUMNS = "time,observable,mean,stderr,n"


def _check_times(times: Sequence[float], what: str) -> None:
    """The one time-grid rule: at least one time, finite, >= 0, strictly increasing."""
    if not times:
        raise ValueError(f"{what} has no time")
    if not all(map(math.isfinite, times)):
        raise ValueError(f"{what} has a non-finite time")
    if min(times) < 0:
        raise ValueError(f"{what} has a negative time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{what} is not strictly increasing")


def _json_number(x: float) -> float | None:
    """x, or None for nan and inf, which JSON cannot write."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class SeriesPoint:
    mean: float
    stderr: float
    n: Union[int, str]


@dataclass(frozen=True)
class DensityCurve:
    """Named observable series over one time grid, plus run metadata."""

    times: tuple[float, ...]
    series: tuple[tuple[str, tuple[SeriesPoint, ...]], ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        _check_times(self.times, "curve time grid")
        if not self.series:
            raise ValueError("curve needs at least one observable")
        for name, points in self.series:
            if len(points) != len(self.times):
                raise ValueError(
                    f"series {name!r} has {len(points)} points for "
                    f"{len(self.times)} times"
                )

    def observables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.series)

    def get(self, name: str) -> tuple[SeriesPoint, ...]:
        for obs, points in self.series:
            if obs == name:
                return points
        raise KeyError(name)

    # -- writers ----------------------------------------------------------

    def to_csv_text(self) -> str:
        lines = ["# " + json.dumps(dict(self.meta), sort_keys=True)]
        lines.append(CSV_COLUMNS)
        for name, points in self.series:
            for t, p in zip(self.times, points):
                lines.append(f"{t!r},{name},{p.mean!r},{p.stderr!r},{p.n}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """The curve as JSON values; a non-finite mean or stderr is None."""
        return {
            "meta": dict(self.meta),
            "times": list(self.times),
            "series": [
                {
                    "observable": name,
                    "points": [
                        {"time": t, "mean": _json_number(p.mean),
                         "stderr": _json_number(p.stderr), "n": p.n}
                        for t, p in zip(self.times, points)
                    ],
                }
                for name, points in self.series
            ],
        }

    def to_json_text(self) -> str:
        text = json.dumps(self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False)
        return text + "\n"

    # -- readers ----------------------------------------------------------

    @classmethod
    def from_csv_text(cls, text: str) -> "DensityCurve":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        meta: dict = {}
        if lines and lines[0].startswith("#"):
            meta = json.loads(lines[0].lstrip("# "))
            lines = lines[1:]
        if not lines or lines[0] != CSV_COLUMNS:
            raise ValueError(f"expected header {CSV_COLUMNS!r}")
        times: dict[str, list[float]] = {}
        points: dict[str, list[SeriesPoint]] = {}
        for ln in lines[1:]:
            t_s, name, mean_s, stderr_s, n_s = ln.split(",")
            n: Union[int, str] = int(n_s) if n_s.isdigit() else n_s
            times.setdefault(name, []).append(float(t_s))
            points.setdefault(name, []).append(SeriesPoint(float(mean_s), float(stderr_s), n))
        grid = next(iter(times.values()), [])  # the first observable's times, in file order
        _check_times(grid, "curve time grid")
        for name, ts in times.items():
            if ts != grid:
                raise ValueError(f"observable {name!r} does not list the times {grid}")
        series = tuple((name, tuple(p)) for name, p in points.items())
        return cls(times=tuple(grid), series=series, meta=meta)


def curve_from_exact(
    times: Sequence[float],
    named_forms: Iterable[tuple[str, ExpPoly]],
    meta: Mapping | None = None,
) -> DensityCurve:
    """Evaluate exact closed forms on a grid as a stderr-0 curve."""
    times = tuple(float(t) for t in times)
    base = {"kind": "exact"}
    if meta:
        base.update(meta)
    series = tuple(
        (
            name,
            tuple(
                SeriesPoint(mean=value, stderr=0.0, n="exact")
                for value in form.eval_grid(times)
            ),
        )
        for name, form in named_forms
    )
    return DensityCurve(times=times, series=series, meta=base)


def parse_grid(text: str, what: str) -> tuple[float, ...]:
    """Parse a time grid named what in errors: 'start:step:stop', or a comma
    list '0.5,1,2' read by _comma_list; either form then passes _check_times."""
    text = text.strip()
    entries = text.split(":") if ":" in text else _comma_list(text, what)
    try:
        values = tuple(map(float, entries))
    except ValueError:
        raise ValueError(f"{what} {text!r} has an entry that is not a number") from None
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"{what} {text!r} must be start:step:stop")
        start, step, stop = values
        if not (0 < step < math.inf and -math.inf < start <= stop < math.inf):
            raise ValueError(f"bad {what} bounds in {text!r}")
        out = []
        k = 0
        while True:
            t = start + k * step
            if t > stop + 1e-12:
                break
            out.append(round(t, 12))
            k += 1
        values = tuple(out)
    _check_times(values, f"{what} {text!r}")
    return values
