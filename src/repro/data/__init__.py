"""Data substrate: raw tuples, windows and the synthetic *lausanne-data*.

The paper's evaluation dataset (OpenSense traces from two Lausanne buses,
1 month at 60 s sampling, 176 K raw tuples) is proprietary.  This package
replaces it with a deterministic synthetic equivalent that preserves the
property the paper is about — *geo-temporal skew*: measurements exist only
along bus routes, and only while buses are in service.

The dataset is the paper's CO2 one: the sensor value of a raw tuple is
whatever pollutant a deployment senses, and nothing downstream depends
on which.  Tuples are stored as sensed; there is no quality screen.
"""

from repro.data.field import DiurnalTrafficCycle, EmissionSource, PollutionField
from repro.data.io import read_tuples_csv, write_tuples_csv
from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.data.routes import BusRoute, lausanne_routes
from repro.data.tuples import QueryTuple, RawTuple, TupleBatch
from repro.data.windows import WindowSpec, count_windows, iter_windows, window

__all__ = [
    "DiurnalTrafficCycle",
    "EmissionSource",
    "PollutionField",
    "read_tuples_csv",
    "write_tuples_csv",
    "LausanneConfig",
    "generate_lausanne_dataset",
    "BusRoute",
    "lausanne_routes",
    "QueryTuple",
    "RawTuple",
    "TupleBatch",
    "WindowSpec",
    "count_windows",
    "iter_windows",
    "window",
]
