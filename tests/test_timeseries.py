import numpy as np
import pytest

from usecb.errors import IngestionError
from usecb.timeseries import load_timeseries


def _write(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    return path


def test_midpoint_linear_interpolation(tmp_path):
    ts = load_timeseries(_write(tmp_path, "t,value\n0,1.0\n10,3.0\n"))
    assert ts.resample([5.0]) == pytest.approx([2.0])


def test_constant_series_resamples_constant(tmp_path):
    ts = load_timeseries(_write(tmp_path, "t,value\n0,4.2\n50,4.2\n100,4.2\n"))
    grid = np.linspace(0, 100, 37)
    assert np.allclose(ts.resample(grid), 4.2)


def test_resample_clamps_outside_range(tmp_path):
    ts = load_timeseries(_write(tmp_path, "t,value\n10,1.0\n20,2.0\n"))
    assert ts.resample([0.0, 99.0]).tolist() == [1.0, 2.0]


def test_empty_file_rejected(tmp_path):
    with pytest.raises(IngestionError):
        load_timeseries(_write(tmp_path, ""))


def test_header_only_rejected(tmp_path):
    with pytest.raises(IngestionError, match="no data"):
        load_timeseries(_write(tmp_path, "t,value\n"))


def test_non_monotone_rejected(tmp_path):
    with pytest.raises(IngestionError, match="increasing"):
        load_timeseries(_write(tmp_path, "t,value\n0,1\n5,2\n5,3\n"))


def test_nan_rejected(tmp_path):
    with pytest.raises(IngestionError, match="NaN"):
        load_timeseries(_write(tmp_path, "t,value\n0,1\n5,nan\n"))


@pytest.mark.parametrize("row", ["5,inf", "5,-inf", "inf,2"])
def test_infinite_rejected(tmp_path, row):
    with pytest.raises(IngestionError, match="infinite"):
        load_timeseries(_write(tmp_path, f"t,value\n0,1\n{row}\n"))


def test_missing_header_rejected(tmp_path):
    with pytest.raises(IngestionError, match="header"):
        load_timeseries(_write(tmp_path, "0,1\n5,2\n"))
