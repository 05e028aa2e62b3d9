"""The whole-prefix trainer, kept as the reference for
``provlens.model.train``.

This is ``train`` as it was written before training stopped building
the prefix's feature matrix: every block of head inputs is copied into
one ``(n_prefix, input_dim)`` array, the fit part and the held-out part
are slices of it, and the statistics read those slices. It holds every
row at once, so ``train`` is checked against it bit for bit and its
traced peak is the one ``train`` must stay under.
"""

from __future__ import annotations

import numpy as np

from provlens.model import (
    TgnModel,
    TrainStats,
    _fit_head,
    _head,
    _Stream,
    training_prefix_end,
)


def reference_train(dataset, config) -> TgnModel:
    """The model ``train`` fits, from the whole prefix feature matrix."""
    if len(dataset.graph) == 0:
        raise ValueError("cannot train on an empty dataset")
    bound = training_prefix_end(dataset)
    if bound is None:
        n_prefix = len(dataset.graph)
    else:
        n_prefix = dataset.graph.count_before(bound)
    if n_prefix == 0:
        raise ValueError("no benign training prefix before the attack interval")

    model = TgnModel(config)
    stream = _Stream(model, dataset.graph, n_prefix)
    X, y = np.empty((n_prefix, model.input_dim)), stream.rel
    for start, stop, rows in stream.feature_blocks(model):
        X[start:stop] = rows

    n_fit = max(1, int(round(n_prefix * 0.8)))
    X_fit, y_fit = X[:n_fit], y[:n_fit]
    _fit_head(model, X_fit, y_fit, config)

    X_val, y_val = X[n_fit:], y[n_fit:]
    if len(X_val) == 0:
        X_val, y_val = X_fit, y_fit
    val_losses = _losses(model, X_val, y_val)
    model.stats = TrainStats(
        mu=float(val_losses.mean()),
        sigma=float(val_losses.std()),
        final_train_loss=float(_losses(model, X_fit, y_fit).mean()),
    )
    return model


def _losses(model, X, y):
    """Each row's cross-entropy, its bias added in a fresh array."""
    _, P = _head(X @ model.We.T + model.be, model.Wo, model.bo)
    return -np.log(np.maximum(P[np.arange(len(X)), y], 1e-300))
