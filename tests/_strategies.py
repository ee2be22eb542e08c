"""Hypothesis strategies shared by the exact-enumeration tests."""
import contextlib
from unittest import mock

import hypothesis.strategies as st

from isinglearn import ising
from isinglearn.graphs import Graph

# (lo bits, states per slab) of the split enumeration, which walks only
# the x_p = +1 half of the states, so vertex p is always a hi vertex. At
# p <= 10 the default leaves vertex p alone in the hi half, one hi row;
# 0 lo bits leaves the lo half empty, and with one state per slab the
# running shift must rise slab after slab; the small slabs force one or
# a few hi rows per slab, and 96 states against 2^5 lo columns leaves a
# short last slab.
SPLIT_LAYOUTS = (
    (ising._LO_BITS, ising._SLAB_STATES),
    (0, ising._SLAB_STATES),
    (0, 1),
    (3, 8),
    (2, 1),
    (5, 96),
)


@contextlib.contextmanager
def split_layout(layout):
    lo_bits, slab_states = layout
    with mock.patch.object(ising, "_LO_BITS", lo_bits), mock.patch.object(
        ising, "_SLAB_STATES", slab_states
    ):
        yield


@st.composite
def ising_instances(draw, p_min=1, p_max=10, theta_max=5.0):
    """(graph, couplings dict, split layout) with heterogeneous couplings
    of either sign."""
    p = draw(st.integers(p_min, p_max))
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    thetas = draw(
        st.lists(
            st.floats(-theta_max, theta_max, allow_nan=False),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    layout = draw(st.sampled_from(SPLIT_LAYOUTS))
    return Graph(p, set(edges)), dict(zip(edges, thetas)), layout
