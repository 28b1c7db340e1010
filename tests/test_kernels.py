from alphax import kernels
from alphax.graph import Graph, neighbor_degree_sum, pair_count
from alphax.enumeration import ClassFilter

# (m_lo, m_hi, dmin) windows: a connected graph has at least n-1 edges, a
# minimally k-(edge-)connected graph minimum degree k, so at least kn/2 edges
WINDOWS = {
    (1, "all-connected"): (0, 0, 0),
    (5, "min-2-edge-connected"): (5, 10, 2),
    (6, "min-2-connected"): (6, 15, 2),
    (6, "min-3-edge-connected"): (9, 15, 3),
    (6, "all-connected"): (5, 15, 1),
}


def plan_for(n, name):
    lo, hi, dmin = WINDOWS[n, name]
    assert hi == pair_count(n)
    return ClassFilter.parse(name), lo, hi, dmin


def test_scan_masks_decode_to_class_members():
    for n, name in [
        (5, "min-2-edge-connected"),
        (6, "min-2-connected"),
        (6, "min-3-edge-connected"),
        (6, "all-connected"),
    ]:
        flt, lo, hi, dmin = plan_for(n, name)
        masks = kernels.scan_masks(n, lo, hi, dmin, flt.passes)
        assert masks
        assert masks == sorted(masks)
        for mask in masks:
            g = Graph.from_edge_mask(n, mask)
            assert flt.passes(g)
            # the scan's labelling filter
            keys = [(g.degree(v), neighbor_degree_sum(g, v)) for v in range(n)]
            assert keys == sorted(keys, reverse=True)


def test_single_vertex_scan():
    flt, lo, hi, dmin = plan_for(1, "all-connected")
    assert kernels.scan_masks(1, lo, hi, dmin, flt.passes) == [0]
    assert kernels.scan_masks(1, 0, 0, 0, ClassFilter.parse("min-2-connected").passes) == []
