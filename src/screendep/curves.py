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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

from .exppoly import ExpPoly

CSV_COLUMNS = "time,observable,mean,stderr,n"


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
        if not self.times:
            raise ValueError("curve needs at least one time")
        if any(b >= a for a, b in zip(self.times[1:], self.times)):
            raise ValueError(f"times must be strictly increasing: {self.times}")
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
        return {
            "meta": dict(self.meta),
            "times": list(self.times),
            "series": [
                {
                    "observable": name,
                    "points": [
                        {"time": t, "mean": p.mean, "stderr": p.stderr, "n": p.n}
                        for t, p in zip(self.times, points)
                    ],
                }
                for name, points in self.series
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str, fmt: str = "csv") -> None:
        text = self.to_csv_text() if fmt == "csv" else self.to_json_text()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

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
        per_obs: dict[str, dict[float, SeriesPoint]] = {}
        order: list[str] = []
        times: list[float] = []
        for ln in lines[1:]:
            t_s, name, mean_s, stderr_s, n_s = ln.split(",")
            t = float(t_s)
            if name not in per_obs:
                per_obs[name] = {}
                order.append(name)
            n: Union[int, str] = int(n_s) if n_s.isdigit() else n_s
            per_obs[name][t] = SeriesPoint(float(mean_s), float(stderr_s), n)
            if t not in times:
                times.append(t)
        times.sort()
        series = tuple(
            (name, tuple(per_obs[name][t] for t in times)) for name in order
        )
        return cls(times=tuple(times), series=series, meta=meta)


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


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a time grid: either 'start:step:stop' or a comma list '0.5,1,2'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid bounds in {text!r}")
        out = []
        k = 0
        while True:
            t = start + k * step
            if t > stop + 1e-12:
                break
            out.append(round(t, 12))
            k += 1
        return tuple(out)
    return tuple(float(p) for p in text.split(","))
