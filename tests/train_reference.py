"""The whole-prefix trainer, kept as the reference for
``provlens.model.train``, and its in-memory head fit.

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
    ModelConfig,
    TgnModel,
    TrainStats,
    _fit_weighted,
    _head,
    _pair_index,
    _Stream,
    training_prefix_end,
)


def _fit_head(model: TgnModel, X: np.ndarray, y: np.ndarray, config: ModelConfig):
    """Fit the head on the rows of ``X`` with labels ``y``: the mean
    cross-entropy over the n rows is, row for row, a sum over the k
    distinct (input, label) rows (:func:`_distinct_rows`) weighted by
    count / n, so ``_fit_weighted`` runs on those k rows. The result
    equals the fit over every row up to float rounding of the reordered
    sums, and is bitwise the fit ``train`` makes of the same rows
    without holding them."""
    first, counts = _distinct_rows(X, y)
    _fit_weighted(model, X[first], y[first], counts / len(X), config)


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct (row, label) pair
    (see ``provlens.model._pair_index``), in order of first occurrence,
    and how many rows each pair has."""
    index = np.array(_pair_index(X, y, {}), dtype=np.intp)
    return np.unique(index, return_index=True)[1], np.bincount(index).astype(float)


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
