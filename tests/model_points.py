"""The critical set of a surgery model on R^n, searched as the model tests
and the acceptance suite check it."""

import numpy as np

from equimorse.morse import (
    ImplicitGManifold,
    classify,
    find_critical_points,
    seed_grid,
)


def predicted_points(model) -> list[np.ndarray]:
    """The origin, and t0 u for each critical point u of h on the unit
    sphere of U, in closed form for the tests' sphere functions: +-1 on a
    line, where every h is constant, and the angles j pi / 3 of cos 3 theta
    on a plane."""
    n, k = model.nvars, model.dv + model.dw
    dirs = []
    if model.du == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif model.du == 2:
        a = np.pi * np.arange(6) / 3
        dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    out = [np.zeros(n)]
    for u in dirs:
        x = np.zeros(n)
        x[k:] = model.cut.t0 * u
        out.append(x)
    return out


def model_critical_points(model, action):
    """(predicted, crits): predicted_points, and the critical points Newton
    finds from them and from a 9-per-axis grid over [-3.4, 3.4]^n,
    classified on R^n under the action."""
    n = model.nvars
    M = ImplicitGManifold(ambient=n, constraints=(), action=action,
                          name="model-space")
    predicted = predicted_points(model)
    seeds = np.concatenate([predicted, seed_grid([(-3.4, 3.4)] * n, 9)])
    return predicted, [classify(model, M, p)
                       for p in find_critical_points(model, M, seeds)]


def unpredicted(predicted, crits) -> list:
    """The critical points farther than 1e-5 from every predicted point."""
    return [c for c in crits
            if all(np.linalg.norm(c.coords - q) > 1e-5 for q in predicted)]
