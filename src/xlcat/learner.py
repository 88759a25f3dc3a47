"""One-vs-rest linear SVM over binary feature vectors, trained by
Pegasos-style stochastic subgradient descent, plus evaluation metrics.

Only `train` imports numpy; it trains blocks of categories in forked
children, bit for bit as in one process. A model is lists of floats,
scored in pure Python in a pinned order of additions (see predict).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Sequence

from ._util import abridged, cpu_blocks, dump_artifact, forked, int_at_least, json_field, load_artifact, stable_rng
from .errors import DataError
from .features import BinaryFeatureVector

DEFAULT_LAMBDA = 1e-4
DEFAULT_EPOCHS = 20


class TrainingError(DataError):
    pass


def lambda_ok(lambda_: float) -> bool:
    """Whether train can step with lambda_: a number in (0, largest float]
    whose first step 1/lambda_ is finite; an int compares exactly."""
    return 0 < lambda_ <= sys.float_info.max and 1 / lambda_ < math.inf


@dataclass
class LinearModel:
    categories: List[str]
    weights: List[List[float]]  # one row of n_features weights per category
    bias: List[float]  # one per category
    lambda_: float
    epochs: int
    seed: int

    def __post_init__(self):
        n = len(self.categories)
        if len(set(self.categories)) != n:
            raise DataError("'categories' holds a category twice")
        widths = set(map(len, self.weights))
        if not n or len(self.weights) != n or len(widths) != 1 or len(self.bias) != n:
            raise DataError(f"{n} categories but {len(self.weights)} 'weights' rows of "
                            f"lengths {sorted(widths)} and {len(self.bias)} 'bias' values")
        for cat, row, b in zip(self.categories, self.weights, self.bias):
            total = 0.0  # added like a score, |b| last, so it bounds every partial score
            try:
                for w in [*row, b]:
                    total += abs(w)
            except OverflowError:  # an integer too large for a float
                total = math.inf
            if not math.isfinite(total):
                raise DataError(f"'weights' and 'bias' of category {cat!r} must be finite "
                                "numbers whose absolute values have a finite sum")

    @property
    def n_features(self) -> int:
        return len(self.weights[0])

    def save(self, path: str | Path) -> None:
        dump_artifact(path, "model", {
            "categories": self.categories,
            "lambda": self.lambda_,
            "epochs": self.epochs,
            "seed": self.seed,
            "weights": [[float(w) for w in row] for row in self.weights],
            "bias": [float(b) for b in self.bias],
        })

    @classmethod
    def load(cls, path: str | Path) -> "LinearModel":
        def convert(payload):
            get = partial(json_field, payload, where=path, line=1)
            rows = [json_field({"weights": row}, "weights", list, path, 1, of=float)
                    for row in get("weights", list, of=list)]  # each row named as the field
            return cls(
                categories=get("categories", list, of=str),
                weights=rows,
                bias=get("bias", list, of=float),
                lambda_=get("lambda", float),
                epochs=get("epochs", int),
                seed=get("seed", int),
            )

        return load_artifact(path, "model", convert)


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    per_category: Dict[str, Dict[str, float]]
    confusion_matrix: List[List[int]]  # rows: true category, cols: predicted
    categories: List[str]
    n_test: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def _check_vectors(vectors: Sequence[BinaryFeatureVector], n_features: int) -> None:
    for vec in vectors:
        if vec and (max(vec) >= n_features or min(vec) < 0):
            raise TrainingError(
                f"vector coordinate out of range for dimension {n_features}"
            )


def train(
    vectors: Sequence[BinaryFeatureVector],
    labels: Sequence[str],
    categories: Sequence[str],
    n_features: int,
    lambda_: float = DEFAULT_LAMBDA,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
) -> LinearModel:
    """Train one binary SVM per category (one-vs-rest) with Pegasos updates:
    step size 1/(lambda * t), hinge loss, L2 regularization. The bias is
    regularized like the weights: it is shrunk by 1 - eta*lambda at every
    step. Deterministic given inputs and seed.

    Every category takes epochs * documents steps, and step t's shrink
    factor is the same for all of them, so the categories step in lockstep:
    at step t each computes its margin on the document its own shuffle
    order picks, then one dense shrink scales every category's weights, and
    each violating category writes its shrunk-and-updated active weights
    back. Each step costs O(categories * n_features) for that one shrink
    plus O(categories * nnz) for the margins and updates, so training is
    O(epochs * documents * categories * n_features). After every check and
    the draw of every shuffle order, the contiguous blocks of categories
    that _util.cpu_blocks splits step apart: the first here, each other in
    a forked child (see _util.forked) that calls only take, put,
    np.add.reduce and elementwise arithmetic, no BLAS. A row's steps read
    and write only that row, so the result is the same, bit for bit, for
    any split and as training the categories one after another."""
    if type(lambda_) not in (int, float) or not lambda_ok(lambda_):
        raise TrainingError(f"lambda must be a number > 0 with a finite inverse, "
                            f"got {abridged(lambda_)}")
    if not int_at_least(epochs, 1):
        raise TrainingError(f"epochs must be an integer >= 1, got {abridged(epochs)}")
    if type(seed) is not int:
        raise TrainingError(f"seed must be an integer, got {abridged(seed)}")
    import numpy as np
    if len(vectors) != len(labels):
        raise TrainingError("vectors and labels must have the same length")
    if not vectors:
        raise TrainingError("empty training set")
    categories = list(categories)
    if len(set(categories)) != len(categories):
        raise TrainingError("'categories' holds a category twice")
    label_set = set(labels)
    for cat in categories:
        if cat not in label_set:
            raise TrainingError(f"category {cat!r} has no training examples")
    unknown = label_set - set(categories)
    if unknown:
        raise TrainingError(f"labels outside the declared categories: {sorted(unknown)}")
    _check_vectors(vectors, n_features)

    # The bias is an always-on extra coordinate, so the plain Pegasos update,
    # shrinkage included, covers it; it is split back out at the end.
    active = [
        np.fromiter(sorted(vec) + [n_features], dtype=np.intp, count=len(vec) + 1)
        for vec in vectors
    ]
    n = len(vectors)
    weights = np.zeros((len(categories), n_features + 1), dtype=np.float64)
    ys = [[1.0 if lab == cat else -1.0 for lab in labels] for cat in categories]

    # Row k holds category k's shuffle orders, drawn in the sequence of
    # training the categories one after another (all epochs of category 0,
    # then 1, ...), in the narrowest integer type that holds an index.
    rng = stable_rng(seed, "train-shuffle")
    try:  # MemoryError past memory, ValueError past numpy's largest dimension
        orders = np.empty((len(categories), epochs * n), dtype=np.min_scalar_type(n - 1))
    except (MemoryError, ValueError) as exc:
        raise TrainingError(f"'hyperparams.epochs' {abridged(epochs)} is too many: {exc}") from exc
    for row in orders:
        order = list(range(n))
        for e in range(epochs):
            rng.shuffle(order)
            row[e * n:(e + 1) * n] = order

    add = np.add.reduce  # what w[idx].sum() computes: pairwise summation
    rate = float(lambda_)  # an integer lambda times t may be too large for a float

    def run_block(lo: int, hi: int):  # rows lo:hi of the weights after every step
        block = weights[lo:hi]
        rows, signs = list(block), ys[lo:hi]  # views of each category's weights
        t = 0
        for e in range(epochs):
            for picks in orders[lo:hi, e * n:(e + 1) * n].T.tolist():
                t += 1
                eta = 1.0 / (rate * t)
                shrink = 1.0 - eta * rate
                updates = []
                for w, y, i in zip(rows, signs, picks):
                    idx = active[i]
                    g = w.take(idx)
                    if y[i] * add(g) < 1.0:
                        updates.append((w, idx, g, eta * y[i]))
                block *= shrink
                for w, idx, g, step in updates:
                    w.put(idx, g * shrink + step)
        return block

    bounds = cpu_blocks(len(categories))
    with forked([partial(run_block, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]) as stepped:
        run_block(0, bounds[1])
    weights = np.vstack([weights[:bounds[1]], *stepped])

    return LinearModel(
        categories=categories,
        weights=weights[:, :n_features].tolist(),
        bias=weights[:, n_features].tolist(),
        lambda_=lambda_,
        epochs=epochs,
        seed=seed,
    )


def decision_values(model: LinearModel, vector: BinaryFeatureVector) -> List[float]:
    _check_vectors([vector], model.n_features)
    idx = sorted(vector)
    scores = []
    for row, b in zip(model.weights, model.bias):
        score = 0.0
        for i in idx:
            score += row[i]
        scores.append(score + b)
    return scores


def predict(model: LinearModel, vector: BinaryFeatureVector) -> str:
    """Highest-scoring category; ties resolve to the earliest-declared one.
    A category's score adds its weights at the active coordinates in
    increasing order, left to right from 0.0, then its bias: with two or more
    categories, numpy's `weights[:, idx].sum(axis=1) + bias`. The loop is
    explicit because sum() compensates from Python 3.12 on."""
    scores = decision_values(model, vector)
    return model.categories[scores.index(max(scores))]


def report_from_pairs(
    y_true: Sequence[str], y_pred: Sequence[str], categories: Sequence[str]
) -> EvalReport:
    """Accuracy, per-category precision/recall/F1 (0 where undefined),
    macro-F1 and the confusion matrix over the given categories."""
    if not y_true:
        raise DataError("empty test set")
    if len(y_true) != len(y_pred):
        raise DataError("prediction and label lists must have the same length")
    categories = list(categories)
    cat_index = {c: i for i, c in enumerate(categories)}
    for lab in y_true:
        if lab not in cat_index:
            raise DataError(f"test label {lab!r} not among the categories")
    k = len(categories)
    confusion = [[0] * k for _ in range(k)]
    for lab, pred in zip(y_true, y_pred):
        confusion[cat_index[lab]][cat_index[pred]] += 1

    per_category: Dict[str, Dict[str, float]] = {}
    f1_sum = 0.0
    correct = 0
    for i, cat in enumerate(categories):
        tp = confusion[i][i]
        fn = sum(confusion[i]) - tp
        fp = sum(confusion[r][i] for r in range(k)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_category[cat] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": tp + fn,
        }
        f1_sum += f1
        correct += tp
    return EvalReport(
        accuracy=correct / len(y_true),
        macro_f1=f1_sum / k,
        per_category=per_category,
        confusion_matrix=confusion,
        categories=categories,
        n_test=len(y_true),
    )


def evaluate(
    model: LinearModel,
    vectors: Sequence[BinaryFeatureVector],
    labels: Sequence[str],
) -> EvalReport:
    """Predict every vector and score against the labels, reporting over the
    model's declared categories."""
    if len(vectors) != len(labels):
        raise DataError("vectors and labels must have the same length")
    predictions = [predict(model, vec) for vec in vectors]
    return report_from_pairs(labels, predictions, model.categories)
