import numpy as np
import pytest

from skillzip import MergePlan, ShapeError, TaskDelta, ValidationError, extract_delta, merge_shared, recenter
from skillzip.deltas import apply_delta
from skillzip.prng import Prng


def _arch(rng, names, rows=4, cols=4):
    return {n: rng.uniform_matrix(rows, cols, -1.0, 1.0) for n in names}


def test_extract_zero_delta():
    base = {"w": np.full((2, 2), 0.5, dtype=np.float32)}
    d = extract_delta(base, {"w": base["w"].copy()}, "t")
    assert not d.layers["w"].any()


def test_extract_scalar_case():
    d = extract_delta({"w": np.array([[1.0]], dtype=np.float32)}, {"w": np.array([[3.0]], dtype=np.float32)}, "t")
    assert d.layers["w"].tolist() == [[2.0]]


def test_extract_elementwise_oracle():
    # Values on a 2^-10 grid make the subtraction exactly representable,
    # so base + delta rebuilds tuned bit for bit.
    rng = Prng(5)

    def grid(rows, cols):
        raw = rng.uniform_matrix(rows, cols, -1.0, 1.0)
        return (np.round(raw * 1024.0) / 1024.0).astype(np.float32)

    base = {n: grid(4, 4) for n in ("a", "b")}
    tuned = {n: grid(4, 4) for n in base}
    d = extract_delta(base, tuned, "t")
    for n in base:
        assert np.array_equal(base[n] + d.layers[n], tuned[n])


def test_extract_name_mismatch():
    with pytest.raises(ShapeError):
        extract_delta({"a": np.ones((1, 1), dtype=np.float32)}, {"b": np.ones((1, 1), dtype=np.float32)}, "t")


def test_extract_shape_mismatch():
    with pytest.raises(ShapeError):
        extract_delta({"a": np.ones((1, 2), dtype=np.float32)}, {"a": np.ones((2, 1), dtype=np.float32)}, "t")


def test_mean_merge_average():
    d1 = TaskDelta("a", {"w": np.array([[2.0]], dtype=np.float32)})
    d2 = TaskDelta("b", {"w": np.array([[0.0]], dtype=np.float32)})
    merged = merge_shared([d1, d2], MergePlan())
    assert merged.layers["w"].tolist() == [[1.0]]


def test_mean_merge_idempotent_on_identical():
    rng = Prng(6)
    layers = _arch(rng, ["w"])
    deltas = [TaskDelta(f"t{i}", {n: m.copy() for n, m in layers.items()}) for i in range(3)]
    merged = merge_shared(deltas, MergePlan())
    assert np.allclose(merged.layers["w"], layers["w"], atol=1e-7)


def test_trimmed_mean_scalar_oracle():
    vals = [1.0, 2.0, 9.0]
    deltas = [TaskDelta(f"t{i}", {"w": np.array([[v]], dtype=np.float32)}) for i, v in enumerate(vals)]
    merged = merge_shared(deltas, MergePlan(method="trimmed-mean", tau=1.0 / 3.0))
    assert merged.layers["w"].tolist() == [[2.0]]  # one dropped from each tail


def test_merge_permutation_invariant():
    rng = Prng(7)
    deltas = [TaskDelta(f"t{i}", _arch(rng, ["w", "v"])) for i in range(4)]
    plan = MergePlan(method="trimmed-mean", tau=0.25)
    forward = merge_shared(deltas, plan)
    backward = merge_shared(list(reversed(deltas)), plan)
    for n in ("w", "v"):
        assert np.array_equal(forward.layers[n], backward.layers[n])


def test_merge_coefficient_scales():
    d1 = TaskDelta("a", {"w": np.array([[2.0]], dtype=np.float32)})
    d2 = TaskDelta("b", {"w": np.array([[4.0]], dtype=np.float32)})
    merged = merge_shared([d1, d2], MergePlan(coefficient=0.5))
    assert merged.layers["w"].tolist() == [[1.5]]


def test_merge_needs_two():
    with pytest.raises(ValidationError):
        merge_shared([TaskDelta("a", {"w": np.ones((1, 1), dtype=np.float32)})], MergePlan())


def test_merge_plan_validation():
    with pytest.raises(ValidationError):
        MergePlan(method="median")
    with pytest.raises(ValidationError):
        MergePlan(tau=0.5)
    with pytest.raises(ValidationError):
        MergePlan(coefficient=3.0)


def test_recenter_zero_residuals():
    rng = Prng(8)
    layers = _arch(rng, ["w"])
    deltas = [TaskDelta(f"t{i}", {n: m.copy() for n, m in layers.items()}) for i in range(2)]
    shared = TaskDelta("shared", {n: m.copy() for n, m in layers.items()})
    _, residuals = recenter(deltas, shared)
    for r in residuals:
        assert not r.layers["w"].any()


def test_recenter_hand_case():
    deltas = [
        TaskDelta("a", {"w": np.array([[2.0]], dtype=np.float32)}),
        TaskDelta("b", {"w": np.array([[0.0]], dtype=np.float32)}),
    ]
    shared = TaskDelta("s", {"w": np.array([[1.0]], dtype=np.float32)})
    _, residuals = recenter(deltas, shared)
    assert residuals[0].layers["w"].tolist() == [[1.0]]
    assert residuals[1].layers["w"].tolist() == [[-1.0]]


def test_reconstruction_identity_and_centering():
    rng = Prng(9)
    names = ["w", "v"]
    base = _arch(rng, names, 6, 5)
    tuned = [{n: rng.uniform_matrix(6, 5, -1.0, 1.0) for n in names} for _ in range(4)]
    deltas = [extract_delta(base, t, f"t{i}") for i, t in enumerate(tuned)]
    shared = merge_shared(deltas, MergePlan())
    update, residuals = recenter(deltas, shared)
    for i, r in enumerate(residuals):
        for n in names:
            rebuilt = base[n] + update.layers[n] + r.layers[n]
            assert np.abs(rebuilt - tuned[i][n]).max() <= 1e-6
    for n in names:
        mean_residual = np.mean([r.layers[n] for r in residuals], axis=0)
        assert np.abs(mean_residual).max() <= 1e-6


def test_apply_delta_folds_into_backbone():
    base = {"w": np.ones((2, 2), dtype=np.float32)}
    shared = TaskDelta("s", {"w": np.full((2, 2), 0.25, dtype=np.float32)})
    out = apply_delta(base, shared)
    assert np.allclose(out["w"], 1.25)


def test_float32_overflow_refused_naming_the_layer():
    """Finite inputs whose float32 result overflows are refused by each step,
    naming the layer, without a numpy RuntimeWarning."""
    lo, hi = np.full((2, 2), -3e38, dtype=np.float32), np.full((2, 2), 3e38, dtype=np.float32)
    big = TaskDelta("a", {"w": hi})
    steps = [
        lambda: extract_delta({"w": lo}, {"w": hi}, "t"),
        lambda: merge_shared([big, TaskDelta("b", {"w": hi})], MergePlan(coefficient=2.0)),
        lambda: recenter([big], TaskDelta("s", {"w": lo})),
        lambda: apply_delta({"w": hi}, big),
    ]
    for step in steps:
        with pytest.raises(ValidationError, match="^layer 'w': values are not finite in float32$"):
            step()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("plan", [MergePlan(), MergePlan(method="trimmed-mean")])
def test_opposite_infinities_refused_naming_the_layer(plan):
    """+inf and -inf at one entry pool to NaN, which is refused as not
    finite, naming the layer, without a numpy RuntimeWarning."""
    pos, neg = np.full((2, 2), np.inf, dtype=np.float32), np.full((2, 2), -np.inf, dtype=np.float32)
    with pytest.raises(ValidationError, match="^layer 'w': values are not finite in float32$"):
        merge_shared([TaskDelta("a", {"w": pos}), TaskDelta("b", {"w": neg})], plan)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("plan", [MergePlan(), MergePlan(coefficient=0.7), MergePlan(method="trimmed-mean", tau=0.25)])
def test_merge_matches_the_float64_stack_mean_bits(k, plan):
    """The streamed mean adds in numpy's axis-0 order: the same bits as the
    mean of a (k, m, n) float64 stack."""
    rng = Prng(300 + k)
    deltas = [TaskDelta(f"t{i}", {"w": rng.gauss_matrix(33, 17) * np.float32(10.0 ** (i - 2))}) for i in range(k)]
    stack = np.stack([d.layers["w"] for d in deltas]).astype(np.float64)
    if plan.method == "trimmed-mean":
        stack.sort(axis=0)
    drop = int(np.floor(plan.tau * k))
    want = (plan.coefficient * stack[drop : k - drop].mean(axis=0)).astype(np.float32)
    assert merge_shared(deltas, plan).layers["w"].tobytes() == want.tobytes()
