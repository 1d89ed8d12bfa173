"""Ratchet: one engine per kernel.

The scalar / object-walk twins of the array kernels live under
``tests/*/reference.py`` as oracles.  These checks keep a selector flag
or a ``_reference`` / ``_scalar`` body from growing back in ``src/``.
"""

import inspect
import re

import pytest

from repro.cluster import fc
from repro.ml.model import TotalCostPredictor
from repro.netlist.hypergraph import Hypergraph
from repro.place import problem
from repro.place.problem import PlacementProblem
from repro.sta import activity, analysis, graph
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.graph import TimingGraph


@pytest.mark.parametrize(
    "func, flag",
    [
        (Hypergraph.from_design, "use_arrays"),
        (PlacementProblem.__init__, "use_arrays"),
        (TimingGraph.__init__, "use_arrays"),
        (TimingAnalyzer.__init__, "vectorize"),
        (propagate_activity, "vectorize"),
        (TotalCostPredictor.__init__, "blocked"),
    ],
)
def test_no_engine_selector(func, flag):
    assert flag not in inspect.signature(func).parameters


@pytest.mark.parametrize("module", [analysis, graph, activity, problem, fc])
def test_no_twin_bodies(module):
    names = set(vars(module))
    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            names.update(vars(value))
    twins = sorted(n for n in names if re.search(r"_reference$|_scalar$", n))
    assert not twins
