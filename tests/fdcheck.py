"""Finite-difference gradient checking shared by the test modules.

The checker evaluates the loss as a scalar function of model.params, the
one vector that every table row and aggregator parameter is a view of,
perturbing its coordinates in place; a part of the model that stopped being
a view of params would not see the perturbation and would show up as a
mismatch. Analytic tape gradients are compared against central differences
on a sampled subset of coordinates. Relative error is measured on the
sampled sub-vector:

    err = |analytic - numeric| / max(|analytic|, |numeric|, floor)

with the norms taken over the sampled coordinates only.
"""

import numpy as np

from kgcl.model import GradientTape

FD_STEP = 1e-5


def tape_to_flat(model, tape):
    """Expand a sparse GradientTape into the layout of model.params, where
    relation r is row N + r of the tables."""
    flat = np.zeros_like(model.params)
    tables = flat[: model.tables.size].reshape(model.tables.shape)
    for offset, (ids, grads) in ((0, tape.entity_rows()),
                                 (model.num_entities(), tape.relation_rows())):
        tables[ids + offset] = grads
    flat[model.tables.size :] = tape.aggregator_grad
    return flat


def sample_coordinates(rng, total, count):
    if total <= count:
        return np.arange(total)
    return rng.choice(total, size=count, replace=False)


def loss_grad_rel_err(loss_fn, model, rng, coord_count=120, step=FD_STEP):
    """Compare analytic and central-difference gradients of loss_fn(model).

    loss_fn(model, tape) must return the scalar loss and, when tape is not
    None, accumulate gradients into it. Returns the norm-relative error over
    a random subset of coordinates.
    """
    tape = GradientTape(model)
    base = loss_fn(model, tape)
    assert np.isfinite(base)
    analytic = tape_to_flat(model, tape)
    flat = model.params
    coords = sample_coordinates(rng, flat.size, coord_count)
    numeric = np.zeros(coords.size)
    for slot, c in enumerate(coords):
        saved = flat[c]
        flat[c] = saved + step
        up = loss_fn(model, None)
        flat[c] = saved - step
        down = loss_fn(model, None)
        flat[c] = saved
        numeric[slot] = (up - down) / (2.0 * step)
    a = analytic[coords]
    diff = np.linalg.norm(a - numeric)
    denom = max(np.linalg.norm(a), np.linalg.norm(numeric), 1e-8)
    return diff / denom
