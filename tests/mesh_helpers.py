"""Meshes shared by several test modules."""

import numpy as np

from bvlsc.meshing import Mesh, interval_mesh_with, rectangle_mesh


def shuffled_interval_mesh(seed):
    """An interval mesh of [0, 1] with permuted vertex ids, permuted cells and
    some cells given right to left."""
    rng = np.random.default_rng(seed)
    mesh = interval_mesh_with(0.0, 1.0, 0.1, [0.33, 0.5])
    perm = rng.permutation(mesh.n_vertices)
    cells = np.argsort(perm)[np.asarray(mesh.cells)][rng.permutation(mesh.n_cells)]
    flip = rng.random(mesh.n_cells) < 0.5
    cells[flip] = cells[flip, ::-1]
    return Mesh(mesh.vertices[perm], cells, domain=mesh.domain)


def shuffled_triangle_mesh(seed, n=6):
    """An n x n rectangle mesh of the unit square with permuted vertex ids,
    permuted cells and some cells given clockwise."""
    rng = np.random.default_rng(seed)
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)
    perm = rng.permutation(mesh.n_vertices)
    cells = np.argsort(perm)[np.asarray(mesh.cells)][rng.permutation(mesh.n_cells)]
    flip = rng.random(mesh.n_cells) < 0.5
    cells[flip] = cells[flip][:, [0, 2, 1]]
    return Mesh(mesh.vertices[perm], cells, domain=mesh.domain)
