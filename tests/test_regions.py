import numpy as np
import pytest

from bvlsc.regions import CompactSet, box, polygon_region


def _reference_dist(x, pieces):
    """CompactSet.dist of point and segment pieces with np.linalg.norm, the
    projections taken as row-wise sums of products."""
    d = np.full(len(x), np.inf)
    for kind, data in pieces:
        if kind == "point":
            d = np.minimum(d, np.linalg.norm(x - data, axis=1))
            continue
        a, b = data
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            d = np.minimum(d, np.linalg.norm(x - a, axis=1))
            continue
        t = np.clip(((x - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        d = np.minimum(d, np.linalg.norm(x - (a + t[:, None] * ab), axis=1))
    return d


@pytest.mark.parametrize("dim", [1, 2])
def test_dist_equals_linalg_norm_bit_for_bit(dim):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(257, dim))
    k = CompactSet(dim)
    for p in rng.normal(size=(3, dim)):
        k.add_point(p)
    k.add_segment(rng.normal(size=dim), rng.normal(size=dim))
    k.add_segment(np.full(dim, 0.25), np.full(dim, 0.25))  # a segment of length 0
    assert k.dist(x).tobytes() == _reference_dist(x, k.pieces).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_dist_of_stacked_points_is_the_stack_of_their_dists(dim):
    # a point's distance does not depend on the points stacked with it
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1031, dim))
    k = CompactSet(dim).add_point(rng.normal(size=dim))
    k.add_segment(rng.normal(size=dim), rng.normal(size=dim))
    if dim == 2:
        k.add_polygon([[0.3, 0.1], [1.2, 0.4], [0.7, 1.3]])
    whole = k.dist(x)
    cuts = [0, 1, 2, 7, 64, 500, 1031]
    parts = [k.dist(x[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert whole.tobytes() == np.concatenate(parts).tobytes()
    assert whole.tobytes() == np.concatenate([k.dist(p) for p in x]).tobytes()


def test_box_in_2d_is_its_filled_rectangle():
    rect = box([0.0, 0.0], [1.0, 0.5])
    x = np.array([[0.5, 0.25], [0.0, 0.5], [2.0, 0.25], [0.5, 1.5], [2.0, 1.5]])
    assert rect.dist(x).tolist() == [0.0, 0.0, 1.0, 1.0, pytest.approx(np.sqrt(2.0))]
    same = polygon_region([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
    assert rect.dist(x).tobytes() == same.dist(x).tobytes()
