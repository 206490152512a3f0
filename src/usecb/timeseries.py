"""CSV time-series ingestion and slot-grid resampling."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError

__all__ = ["TimeSeries", "load_timeseries"]


@dataclass
class TimeSeries:
    """Sampled series with strictly monotone timestamps."""

    t: np.ndarray
    value: np.ndarray

    def resample(self, grid):
        """Linear interpolation onto ``grid``; endpoints clamp outside the
        sampled range."""
        return np.interp(np.asarray(grid, dtype=float), self.t, self.value)


def load_timeseries(path):
    """Read a ``t,value`` CSV (header required) into a TimeSeries.

    Rejects empty files, non-finite (NaN or infinite) entries and
    non-monotone timestamps.
    """
    ts = []
    vals = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        if len(header) < 2 or header[0].strip().lower() != "t":
            raise IngestionError(f"{path}: expected header 't,value...'")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = float(row[0])
                v = float(row[1])
            except (ValueError, IndexError) as exc:
                raise IngestionError(f"{path}:{row_no}: bad row ({exc})") from exc
            if not (math.isfinite(t) and math.isfinite(v)):
                raise IngestionError(f"{path}:{row_no}: NaN or infinite entry")
            if ts and t <= ts[-1]:
                raise IngestionError(
                    f"{path}:{row_no}: timestamps must be strictly increasing"
                )
            ts.append(t)
            vals.append(v)
    if not ts:
        raise IngestionError(f"{path}: no data rows")
    return TimeSeries(np.asarray(ts), np.asarray(vals))
