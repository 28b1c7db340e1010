from alphax import kernels
from alphax.graph import Graph
from alphax.enumeration import ClassFilter

from helpers import neighbor_degree_sums

# minimum degree the scan requires: k for minimally k-(edge-)connected and
# connected graphs, except K_1, whose one vertex has degree 0
DMIN = {
    (1, "all-connected"): 0,
    (5, "min-2-edge-connected"): 2,
    (6, "min-2-connected"): 2,
    (6, "min-3-edge-connected"): 3,
    (6, "all-connected"): 1,
}


def plan_for(n, name):
    return ClassFilter.parse(name), DMIN[n, name]


def test_scan_masks_decode_to_class_members():
    for n, name in [
        (5, "min-2-edge-connected"),
        (6, "min-2-connected"),
        (6, "min-3-edge-connected"),
        (6, "all-connected"),
    ]:
        flt, dmin = plan_for(n, name)
        masks = kernels.scan_masks(n, dmin, flt.passes)
        assert masks
        assert masks == sorted(masks)
        for mask in masks:
            g = Graph.from_edge_bits(n, mask)
            assert flt.passes(g)
            # the scan's labelling filter
            keys = list(zip(g.degrees(), neighbor_degree_sums(g)))
            assert keys == sorted(keys, reverse=True)


def test_single_vertex_scan():
    flt, dmin = plan_for(1, "all-connected")
    assert kernels.scan_masks(1, dmin, flt.passes) == [0]
    assert kernels.scan_masks(1, 0, ClassFilter.parse("min-2-connected").passes) == []
