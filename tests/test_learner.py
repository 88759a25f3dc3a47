import math
import random
import re
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlcat import _util, learner
from xlcat._util import stable_rng
from xlcat.errors import DataError
from xlcat.learner import (
    LinearModel,
    TrainingError,
    decision_values,
    evaluate,
    predict,
    report_from_pairs,
    train,
)
from xlcat.pipeline import Hyperparams

from conftest import assert_no_child_left


def separable_toy(n_per_class=10):
    """Feature 0 marks class A, feature 1 marks class B."""
    vectors = [frozenset({0})] * n_per_class + [frozenset({1})] * n_per_class
    labels = ["A"] * n_per_class + ["B"] * n_per_class
    return vectors, labels


def _objective(model, vectors, labels, k):
    """Regularized hinge objective of category k's binary SVM, with the bias
    as an always-on coordinate that is regularized like the weights."""
    w = np.array(model.weights[k] + [model.bias[k]])
    n_features = model.n_features
    hinge = 0.0
    for vec, label in zip(vectors, labels):
        y = 1.0 if label == model.categories[k] else -1.0
        idx = np.fromiter(sorted(vec) + [n_features], dtype=np.intp, count=len(vec) + 1)
        hinge += max(0.0, 1.0 - y * w[idx].sum())
    return 0.5 * model.lambda_ * float(w @ w) + hinge / len(vectors)


def reference_train(vectors, labels, categories, n_features, lambda_, epochs, seed):
    """The trainer as one Pegasos loop per category, one category after
    another: the oracle for train's lockstep loop. Returns (weights, bias)."""
    active = [
        np.fromiter(sorted(vec) + [n_features], dtype=np.intp, count=len(vec) + 1)
        for vec in vectors
    ]
    n = len(vectors)
    weights = np.zeros((len(categories), n_features + 1), dtype=np.float64)
    rng = stable_rng(seed, "train-shuffle")
    for k, cat in enumerate(categories):
        y = np.array([1.0 if lab == cat else -1.0 for lab in labels])
        w = weights[k]
        t = 0
        order = list(range(n))
        for _ in range(epochs):
            rng.shuffle(order)
            for i in order:
                t += 1
                eta = 1.0 / (lambda_ * t)
                idx = active[i]
                margin = y[i] * w[idx].sum()
                w *= 1.0 - eta * lambda_
                if margin < 1.0:
                    w[idx] += eta * y[i]
    return weights[:, :n_features], weights[:, n_features]


@st.composite
def training_sets(draw):
    """Binary vectors over 1-5 categories, some empty and some with seven or
    more active coordinates, whose margins (with the bias) sum eight or more
    terms, where numpy's pairwise summation differs from a running sum.
    lambda*t crosses 1 during the 1-3 epochs: lambda is 1/m for a step m,
    where margins of exactly 1 are common, or else any value in that range."""
    n_features = draw(st.integers(1, 16))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    vectors = [draw(st.frozensets(st.integers(0, n_features - 1))) for _ in range(n)]
    labels = draw(st.permutations([f"c{i % k}" for i in range(n)]))
    epochs = draw(st.integers(1, 3))
    steps = epochs * n
    lambda_ = draw(st.one_of(
        st.integers(1, steps).map(lambda m: 1.0 / m),
        st.floats(1.0 / steps, 1.0),
    ))
    return vectors, labels, [f"c{i}" for i in range(k)], n_features, lambda_, epochs


# Cases at lambda = 1 where a margin of exactly 1 meets a sum of eight or
# more terms, whose rounding decides whether the step violates: only numpy's
# pairwise summation order reproduces them. The first fails margins summed by
# np.add.reduceat, the second margins summed by a running Python sum.
TIED_MARGIN_CASES = [
    (
        [frozenset(v) for v in ([], [0, 1, 2, 3, 6], range(8), [], [4], [2, 3, 6, 7])],
        ["c1", "c0", "c0", "c1", "c1", "c0"],
        ["c0", "c1"], 8, 1.0, 1,
    ),
    (
        [frozenset(v) for v in ([0, 1, 2, 3, 4, 5, 10], [], [0, 3, 5, 6, 7], [0, 4, 5, 8], [7])],
        ["c1", "c0", "c1", "c2", "c0"],
        ["c0", "c1", "c2"], 11, 1.0, 1,
    ),
]


class TestLockstepTrain:
    @settings(max_examples=300)
    @given(training_sets(), st.integers(0, 3))
    @example(TIED_MARGIN_CASES[0], 0)
    @example(TIED_MARGIN_CASES[1], 0)
    def test_bit_identical_to_one_category_at_a_time(self, case, seed):
        vectors, labels, categories, n_features, lambda_, epochs = case
        model = train(vectors, labels, categories, n_features, lambda_=lambda_, epochs=epochs, seed=seed)
        weights, bias = reference_train(vectors, labels, categories, n_features, lambda_, epochs, seed)
        # repr round-trips every float and tells -0.0 from 0.0 and a float from np.float64
        assert repr(model.weights) == repr(weights.tolist())
        assert repr(model.bias) == repr(bias.tolist())


def split_case(k):
    """Documents of k categories, three each, over 10 features; lambda 0.05
    and 3 epochs, so lambda * t crosses 1 for k >= 3."""
    rng = random.Random(k)
    vectors = [frozenset(rng.sample(range(10), rng.randint(0, 8))) for _ in range(3 * k)]
    labels = [f"c{i % k}" for i in range(3 * k)]
    return vectors, labels, [f"c{i}" for i in range(k)], 10, 0.05, 3


class TestCategorySplit:
    """train steps its categories in min(usable CPUs, K) blocks, sizes
    within one and larger first, each but the first in a forked child; no
    bit depends on the split."""

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10])
    def test_same_bits_at_any_cpu_count(self, monkeypatch, forks, k):
        case = split_case(k)
        weights, bias = reference_train(*case, seed=4)
        models, children, forked = [], [], learner.forked

        def recording_forked(tasks):
            children[:] = [task.args for task in tasks]  # each child's (lo, hi)
            return forked(tasks)

        monkeypatch.setattr(learner, "forked", recording_forked)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
            forks.clear()
            model = train(*case, seed=4)
            assert len(forks) == min(cpus, k) - 1
            assert_no_child_left()
            sizes = [children[0][0] if children else k] + [hi - lo for lo, hi in children]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1 and sum(sizes) == k
            assert repr((model.weights, model.bias)) == repr((weights.tolist(), bias.tolist()))
            models.append((model.weights, model.bias))
        assert all(m == models[0] for m in models)

    def test_forks_nothing_beside_another_thread(self, monkeypatch, forks, another_thread):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 3)
        case = split_case(8)
        model = train(*case, seed=4)
        assert not forks
        weights, bias = reference_train(*case, seed=4)
        assert repr((model.weights, model.bias)) == repr((weights.tolist(), bias.tolist()))


def no_stream(*parts):
    raise AssertionError("train drew a random stream")


class TestTrain:
    def test_separable_training_accuracy_one(self):
        vectors, labels = separable_toy()
        model = train(vectors, labels, ["A", "B"], n_features=2, seed=1)
        assert all(predict(model, v) == lab for v, lab in zip(vectors, labels))
        assert evaluate(model, vectors, labels).accuracy == 1.0

    def test_single_example_per_class_memorized(self):
        vectors = [frozenset({0}), frozenset({1}), frozenset({2})]
        labels = ["A", "B", "C"]
        model = train(vectors, labels, ["A", "B", "C"], n_features=3, seed=0)
        assert [predict(model, v) for v in vectors] == labels

    def test_same_seed_bit_identical(self):
        vectors, labels = separable_toy(15)
        m1 = train(vectors, labels, ["A", "B"], n_features=2, seed=9)
        m2 = train(vectors, labels, ["A", "B"], n_features=2, seed=9)
        assert repr(m1.weights) == repr(m2.weights)
        assert repr(m1.bias) == repr(m2.bias)

    def test_empty_category_rejected(self):
        vectors, labels = separable_toy()
        with pytest.raises(TrainingError):
            train(vectors, labels, ["A", "B", "C"], n_features=2)

    def test_label_outside_categories_rejected(self):
        with pytest.raises(TrainingError):
            train([frozenset({0})], ["X"], ["A"], n_features=1)

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(TrainingError):
            train([frozenset({5})], ["A"], ["A"], n_features=2)

    def test_integer_lambda_steps_as_its_float(self):
        # Steps use float(lambda): for 10**308, lambda * t exceeds the largest
        # float from t = 2. The model keeps the integer, which it saves.
        vectors, labels = separable_toy()
        huge = train(vectors, labels, ["A", "B"], n_features=2, lambda_=10**308, epochs=1)
        assert type(huge.lambda_) is int
        one = train(vectors, labels, ["A", "B"], n_features=2, lambda_=1)
        as_float = train(vectors, labels, ["A", "B"], n_features=2, lambda_=1.0)
        assert repr((one.weights, one.bias)) == repr((as_float.weights, as_float.bias))

    @pytest.mark.parametrize("lambda_", [0.0, -1.0, 1e-310, 10**400, math.nan, math.inf, -math.inf])
    def test_bad_lambda_rejected_before_any_step(self, monkeypatch, lambda_):
        """A TrainingError naming lambda, raised before the shuffle streams
        are drawn: no ZeroDivisionError, numpy warning or OverflowError."""
        monkeypatch.setattr(learner, "stable_rng", no_stream)
        vectors, labels = separable_toy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="lambda"):
                train(vectors, labels, ["A", "B"], n_features=2, lambda_=lambda_)

    @pytest.mark.parametrize("lambda_", [10**5000, -10**5000], ids=["10**5000", "-10**5000"])
    def test_over_long_integer_lambda_is_quoted_by_its_bit_length(self, lambda_):
        """Too many digits for str(): the errors still name lambda."""
        vectors, labels = separable_toy()
        with pytest.raises(TrainingError, match=r"^lambda .* got -?<integer of 16610 bits>$"):
            train(vectors, labels, ["A", "B"], n_features=2, lambda_=lambda_)
        with pytest.raises(DataError, match=r"^config field 'hyperparams\.lambda' .*16610 bits>$"):
            Hyperparams(lambda_=lambda_)

    @given(st.floats(allow_nan=True) | st.integers(-10, 10) | st.integers(10**307, 10**310))
    @example(1e-310)
    @example(5e-324)
    @example(10**308)
    def test_train_and_hyperparams_accept_the_same_lambda(self, lambda_):
        vectors, labels = separable_toy(1)
        try:
            Hyperparams(lambda_=lambda_)
        except DataError:
            accepted = False
        else:
            accepted = True
        try:
            train(vectors, labels, ["A", "B"], n_features=2, lambda_=lambda_, epochs=1)
        except TrainingError:
            assert not accepted
        else:
            assert accepted

    @pytest.mark.parametrize("epochs", [0, -1, True, False, 1.0, -10**5000],
                             ids=["0", "-1", "True", "False", "1.0", "-10**5000"])
    def test_bad_epochs_rejected_before_any_step(self, monkeypatch, epochs):
        """Hyperparams' rule, an integer >= 1: 0 trained an all-zero model, -1
        was "too many" epochs and True was one epoch."""
        monkeypatch.setattr(learner, "stable_rng", no_stream)
        vectors, labels = separable_toy()
        with pytest.raises(TrainingError, match=r"^epochs must be an integer >= 1, got "):
            train(vectors, labels, ["A", "B"], n_features=2, epochs=epochs)
        with pytest.raises(DataError, match=r"^config field 'hyperparams\.epochs' must be an integer"):
            Hyperparams(epochs=epochs)

    def test_repeated_category_rejected_before_any_step(self, monkeypatch):
        """It used to train every row and then fail in LinearModel."""
        monkeypatch.setattr(learner, "stable_rng", no_stream)
        vectors, labels = separable_toy()
        with pytest.raises(TrainingError, match=r"^'categories' holds a category twice$"):
            train(vectors, labels, ["A", "B", "A"], n_features=2)

    @pytest.mark.parametrize("name,value", [("seed", True), ("seed", 1.5), ("seed", np.int64(3)), ("lambda_", True)],
                             ids=["seed-True", "seed-1.5", "seed-np.int64", "lambda-True"])
    def test_an_argument_a_model_file_cannot_hold_is_rejected_before_any_step(self, monkeypatch, name, value):
        """Each trained a model that save wrote and load refused, or (np.int64)
        one that save could not write."""
        monkeypatch.setattr(learner, "stable_rng", no_stream)
        vectors, labels = separable_toy()
        with pytest.raises(TrainingError, match=rf"^{name.rstrip('_')} must be .*, got {re.escape(repr(value))}$"):
            train(vectors, labels, ["A", "B"], n_features=2, **{name: value})

    def test_bias_is_regularized(self):
        # Featureless documents are fit through the bias alone. Pegasos with
        # the bias shrunk like a weight leaves w_T = (1/(lambda*T)) times the
        # sum of y over the violating steps; here T = 4 documents * 20 epochs.
        vectors, labels = [frozenset()] * 4, ["A"] * 4
        weak = train(vectors, labels, ["A"], n_features=1, lambda_=1e-4, epochs=20)
        strong = train(vectors, labels, ["A"], n_features=1, lambda_=1.0, epochs=20)
        # lambda=1e-4: only step 1 violates. An unshrunk bias would stay 1e4.
        assert weak.bias[0] == pytest.approx(1 / (1e-4 * 80))
        # lambda=1: the bias stays below 1, so every step but the second violates.
        assert strong.bias[0] == pytest.approx(79 / 80)
        assert abs(strong.bias[0]) < 0.01 * abs(weak.bias[0])

    def test_objective_decreases_on_separable_data(self):
        # Statistically over seeds: the regularized hinge objective after 15
        # epochs is below the objective after 1.
        firsts, lasts = [], []
        for seed in range(10):
            vectors, labels = separable_toy(12)
            for epochs, out in ((1, firsts), (15, lasts)):
                model = train(vectors, labels, ["A", "B"], n_features=2, seed=seed, epochs=epochs)
                out.extend(_objective(model, vectors, labels, k) for k in range(2))
        assert statistics.mean(lasts) < statistics.mean(firsts)
        assert statistics.mean(lasts) < 0.2


class TestPredict:
    def test_all_zero_vector_takes_largest_bias(self):
        model = LinearModel(
            categories=["A", "B"],
            weights=[[0.0] * 3, [0.0] * 3],
            bias=[0.1, 0.7],
            lambda_=1e-4,
            epochs=1,
            seed=0,
        )
        assert predict(model, frozenset()) == "B"

    def test_signed_weights(self):
        model = LinearModel(
            categories=["A", "B"],
            weights=[[1.0, 0.0], [-1.0, 0.0]],
            bias=[0.0, 0.0],
            lambda_=1e-4,
            epochs=1,
            seed=0,
        )
        assert predict(model, frozenset({0})) == "A"

    def test_ties_resolve_to_declaration_order(self):
        model = LinearModel(
            categories=["Z", "A"],
            weights=[[0.0, 0.0], [0.0, 0.0]],
            bias=[0.0, 0.0],
            lambda_=1e-4,
            epochs=1,
            seed=0,
        )
        assert predict(model, frozenset({0})) == "Z"

    def test_inactive_coordinates_ignored(self):
        rng = random.Random(4)
        weights = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(2)]
        model = LinearModel(
            categories=["A", "B"], weights=weights, bias=[0.0, 0.0],
            lambda_=1e-4, epochs=1, seed=0,
        )
        before = predict(model, frozenset({1, 2}))
        for row in model.weights:
            row[4] = 99.0  # untouched coordinate
        assert predict(model, frozenset({1, 2})) == before

    def test_consistent_relabeling_invariance(self):
        rng = random.Random(8)
        n = 10
        weights = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(3)]
        model = LinearModel(
            categories=["A", "B", "C"], weights=weights, bias=[0.1, -0.2, 0.3],
            lambda_=1e-4, epochs=1, seed=0,
        )
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = LinearModel(
            categories=model.categories,
            weights=[[row[p] for p in perm] for row in model.weights],
            bias=model.bias,
            lambda_=1e-4, epochs=1, seed=0,
        )
        inverse = {p: i for i, p in enumerate(perm)}
        for _ in range(30):
            vec = frozenset(rng.sample(range(n), rng.randrange(0, n)))
            mapped = frozenset(inverse[i] for i in vec)
            assert predict(model, vec) == predict(permuted, mapped)


@st.composite
def scoring_cases(draw):
    """A model of 1-9 categories over enough features for a vector of 0-300
    active coordinates. Drawn rows have weights over twelve orders of
    magnitude, so the order of addition shows in the last bits; a tied row
    repeats an earlier row and its bias; a zero row holds signed zeros."""
    k, nnz = draw(st.integers(1, 9)), draw(st.integers(0, 300))
    n_features = max(1, nnz + draw(st.integers(0, 20)))
    rng = draw(st.randoms(use_true_random=False))

    def number():
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)

    weights, bias = [], []
    for kind in draw(st.lists(st.sampled_from(["drawn", "tied", "zero"]), min_size=k, max_size=k)):
        if kind == "tied" and weights:
            j = rng.randrange(len(weights))
            weights.append(list(weights[j]))
            bias.append(bias[j])
        elif kind == "zero":
            weights.append([rng.choice([0.0, -0.0]) for _ in range(n_features)])
            bias.append(rng.choice([0.0, -0.0]))
        else:
            weights.append([number() for _ in range(n_features)])
            bias.append(number())
    model = LinearModel([f"c{i}" for i in range(k)], weights, bias, 1e-4, 1, 0)
    return model, frozenset(rng.sample(range(n_features), nnz))


class TestScoringOracle:
    """Pure-Python scores against numpy's weights[:, idx].sum(axis=1) + bias."""

    @settings(max_examples=300)
    @given(scoring_cases())
    def test_scores_and_predictions_match_numpy(self, case):
        model, vector = case
        idx = np.fromiter(sorted(vector), dtype=np.intp, count=len(vector))
        expected = np.array(model.weights)[:, idx].sum(axis=1) + np.array(model.bias)
        if len(model.categories) >= 2:  # one category sums pairwise; its argmax is 0 anyway
            scores = decision_values(model, vector)
            assert [s.hex() for s in scores] == [float(s).hex() for s in expected]
        assert predict(model, vector) == model.categories[int(np.argmax(expected))]


class TestEvaluate:
    def test_all_correct(self):
        vectors, labels = separable_toy()
        model = train(vectors, labels, ["A", "B"], n_features=2, seed=3)
        report = evaluate(model, vectors, labels)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_single_class_predictions_on_balanced_set(self):
        report = report_from_pairs(
            ["A", "B", "C"] * 4, ["A"] * 12, ["A", "B", "C"]
        )
        assert report.accuracy == pytest.approx(1 / 3)

    def test_hand_confusion_matrix(self):
        # confusion [[2,1],[0,3]] -> accuracy 5/6
        y_true = ["A", "A", "A", "B", "B", "B"]
        y_pred = ["A", "A", "B", "B", "B", "B"]
        report = report_from_pairs(y_true, y_pred, ["A", "B"])
        assert report.confusion_matrix == [[2, 1], [0, 3]]
        assert report.accuracy == pytest.approx(5 / 6)
        assert report.per_category["A"]["recall"] == pytest.approx(2 / 3)
        assert report.per_category["A"]["precision"] == pytest.approx(1.0)

    def test_report_dict_is_its_fields_in_a_new_dict(self):
        report = report_from_pairs(["A", "B"], ["A", "A"], ["A", "B"])
        record = report.to_dict()
        assert record == {"accuracy": 0.5, "macro_f1": report.macro_f1, "per_category": report.per_category,
                          "confusion_matrix": [[1, 0], [1, 0]], "categories": ["A", "B"], "n_test": 2}
        record["n_test"] = 0
        assert report.n_test == 2

    def test_accuracy_equals_brute_force_match_count(self):
        rng = random.Random(31)
        cats = ["x", "y", "z"]
        y_true = [rng.choice(cats) for _ in range(200)]
        y_pred = [rng.choice(cats) for _ in range(200)]
        report = report_from_pairs(y_true, y_pred, cats)
        matches = sum(1 for a, b in zip(y_true, y_pred) if a == b)
        assert report.accuracy == matches / 200

    def test_class_missing_from_test_gets_zero(self):
        report = report_from_pairs(["A", "A"], ["A", "A"], ["A", "B"])
        assert report.per_category["B"]["precision"] == 0.0
        assert report.per_category["B"]["recall"] == 0.0

    def test_empty_test_set_rejected(self):
        model = train(*separable_toy(), categories=["A", "B"], n_features=2)
        with pytest.raises(DataError):
            evaluate(model, [], [])

    def test_unknown_test_label_rejected(self):
        model = train(*separable_toy(), categories=["A", "B"], n_features=2)
        with pytest.raises(DataError):
            evaluate(model, [frozenset({0})], ["Q"])

    def test_confusion_row_sums_are_per_category_counts(self):
        rng = random.Random(77)
        cats = ["a", "b", "c", "d"]
        y_true = [rng.choice(cats) for _ in range(120)]
        y_pred = [rng.choice(cats) for _ in range(120)]
        report = report_from_pairs(y_true, y_pred, cats)
        for i, cat in enumerate(cats):
            assert sum(report.confusion_matrix[i]) == y_true.count(cat)


class TestPersistence:
    def test_load_predict_bit_identical(self, tmp_path):
        rng = random.Random(12)
        vectors = [frozenset(rng.sample(range(20), rng.randrange(0, 8))) for _ in range(60)]
        labels = [rng.choice(["A", "B", "C"]) for _ in range(60)]
        for cat in ("A", "B", "C"):
            if cat not in labels:
                labels[0] = cat
        model = train(vectors, labels, ["A", "B", "C"], n_features=20, seed=5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LinearModel.load(path)
        assert repr(loaded.weights) == repr(model.weights)
        assert repr(loaded.bias) == repr(model.bias)
        for vec in vectors:
            assert predict(loaded, vec) == predict(model, vec)

    @pytest.mark.parametrize("lambda_,seed", [(0.5, 7), (3, -2), (10**308, 0)])
    def test_a_trained_model_reads_back_as_it_was(self, tmp_path, lambda_, seed):
        model = train(*separable_toy(), categories=["A", "B"], n_features=2, lambda_=lambda_, epochs=2, seed=seed)
        model.save(tmp_path / "model.json")
        loaded = LinearModel.load(tmp_path / "model.json")
        assert loaded == model and repr(loaded) == repr(model)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(DataError):
            LinearModel.load(path)
