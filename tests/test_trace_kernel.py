"""The batched boundary traces and element blocks against the per-edge
slow path of ``oracles``, on random disks and rings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.assembly import Assembler
from bdmdarcy.correction import directional_derivative, taylor_trace_normal
from bdmdarcy.mesh import coarse_mesh, refine_project
from oracles import (
    ExactPartials,
    Partials,
    basis_field,
    edge_geometries,
    element_blocks,
    expand,
    of_representatives,
    random_domains,
    round_off,
)
from oracles import taylor_trace_normal as slow_trace_normal


class RandomTrigField:
    """u_c = A_c cos(a_c x + b_c y + phi_c) with random coefficients and
    its closed-form mixed partials: a Taylor field of
    ``correction.taylor_trace`` that is not a gradient, so no
    ``ManufacturedCase``, and the velocity of ``oracles.ExactPartials``."""

    degree = None

    def __init__(self, rng):
        self.amp, self.a, self.b, self.phase = rng.uniform(-2.0, 2.0, size=(4, 2))

    def velocity_derivative(self, pts, rx, ry):
        pts = np.atleast_2d(pts)
        arg = np.outer(pts[:, 0], self.a) + np.outer(pts[:, 1], self.b) + self.phase
        return self.amp * self.a**rx * self.b**ry * np.cos(arg + (rx + ry) * np.pi / 2.0)

    def velocity(self, pts):
        return self.velocity_derivative(pts, 0, 0)

    def eval(self, pts):
        return self.velocity(pts.reshape(-1, 2)).reshape(pts.shape)

    def nu_derivative(self, geom, j):
        pts = geom.points.reshape(-1, 2)
        partial = lambda rx, ry: self.velocity_derivative(pts, rx, ry)
        return directional_derivative(partial, geom.nu.reshape(-1, 2), j).reshape(geom.points.shape)


def relative_gap(batched, slow):
    return float(np.abs(batched - slow).max() / np.abs(slow).max())


@st.composite
def setups(draw):
    curves = draw(random_domains())
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, k))
    level = draw(st.integers(0, 1))
    return curves, k, m, level, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(setups())
def test_batched_traces_match_per_edge_slow_path(setup):
    curves, k, m, level, seed = setup
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k, m=m)
    edges = edge_geometries(asm)
    geom = asm.trace
    for name in ("points", "weights", "delta", "nu", "n_gamma", "projected"):
        slow = np.stack([getattr(e, name) for e in edges])
        assert np.allclose(getattr(geom, name), slow, rtol=1e-15, atol=1e-15), name

    # every shape function of every owner, and a random combination of them
    slow_basis = np.stack([
        slow_trace_normal(Partials(basis_field(asm, e.owner)), e, asm.m) for e in edges
    ])
    assert relative_gap(asm.basis_trace, slow_basis) <= 1e-12
    rng = np.random.default_rng(seed)
    u_loc = rng.standard_normal(asm.dofmap.n_u)[asm.gidx[geom.owner]]
    assert relative_gap(np.einsum("bqi,bi->bq", asm.basis_trace, u_loc),
                        np.einsum("bqi,bi->bq", slow_basis, u_loc)) <= 1e-12

    field = RandomTrigField(rng)
    exact = taylor_trace_normal(field, geom, asm.m)
    slow_exact = np.stack([slow_trace_normal(ExactPartials(field), e, asm.m) for e in edges])
    assert relative_gap(exact, slow_exact) <= 1e-12

    # every boundary form of the blocks (penalty, straight-normal term), on
    # the class representatives' geometry, and the class spread apart
    blocks, _ = element_blocks(asm)
    norm, of_rep = np.linalg.norm(blocks, axis=(1, 2)), of_representatives(asm.elements, blocks)
    assert np.all(np.linalg.norm(expand(asm.elements) - of_rep, axis=(1, 2)) <= 1e-14 * norm)
    spread = np.linalg.norm(of_rep - blocks, axis=(1, 2))
    assert np.all(spread <= 1e-13 * round_off(mesh, curves) * norm)
