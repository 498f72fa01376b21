"""EnviroMeter: a platform for querying community-sensed data.

A from-scratch reproduction of Sathe et al., PVLDB 6(12), VLDB 2013.
The headline API:

>>> from repro import AdKMNConfig, fit_adkmn, generate_lausanne_dataset
>>> from repro.data.windows import window
>>> ds = generate_lausanne_dataset()                     # doctest: +SKIP
>>> cover = fit_adkmn(window(ds.tuples, 0, 240)).cover   # doctest: +SKIP
>>> cover.predict(t=0.0, x=2000.0, y=1500.0)             # doctest: +SKIP

Sub-packages: ``repro.geo`` (projection/street graph), ``repro.data``
(tuples/windows/synthetic lausanne-data), ``repro.storage`` (embedded
DB), ``repro.index`` (R-tree/STR/VP-tree/grid/k-d), ``repro.models``
(regression families), ``repro.core`` (Ad-KMN + model covers),
``repro.query`` (the three methods), ``repro.network``
(wire protocol + GPRS/3G simulator), ``repro.server`` / ``repro.client``
(platform endpoints), ``repro.app`` (Android/web demo layer),
``repro.eval`` (the paper's figures).
"""

from repro.core import AdKMNConfig, AdKMNResult, ModelCover, fit_adkmn
from repro.data import LausanneConfig, generate_lausanne_dataset
from repro.data.tuples import QueryTuple, RawTuple, TupleBatch

__version__ = "1.0.0"

__all__ = [
    "AdKMNConfig",
    "AdKMNResult",
    "ModelCover",
    "fit_adkmn",
    "LausanneConfig",
    "generate_lausanne_dataset",
    "QueryTuple",
    "RawTuple",
    "TupleBatch",
    "__version__",
]
