import numpy as np
import pytest

from hlsdbg import autodiff as ad
from hlsdbg.autodiff import Tape, Tensor, backward
from hlsdbg.errors import NumericError
from hlsdbg.gradcheck import check_gradients
from hlsdbg.optim import AdamState, adam_step, clip_global_norm
from hlsdbg.tensorstore import load_tensors, save_tensors
from hlsdbg.errors import DataError


def _t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def _rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True, dtype=np.float64)


# --- forward values ---------------------------------------------------------


class TestForward:
    def test_softmax_of_equal_logits_is_uniform(self):
        y = ad.softmax(_t([0.0, 0.0]))
        assert np.allclose(y.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        y = ad.softmax(_rand((3, 5), 0), axis=-1)
        assert np.allclose(y.data.sum(axis=-1), 1.0)

    def test_matmul_identity(self):
        a = _rand((4, 4), 1)
        eye = Tensor(np.eye(4))
        assert np.allclose(ad.matmul(a, eye).data, a.data)

    def test_layer_norm_reference(self):
        x = _t([1.0, 2.0, 3.0])
        y = ad.layer_norm(x, eps=0.0)
        mu, sd = 2.0, np.sqrt(2.0 / 3.0)
        assert np.allclose(y.data, (np.array([1.0, 2.0, 3.0]) - mu) / sd)

    def test_log_softmax_matches_log_of_softmax(self):
        x = _rand((2, 7), 2)
        assert np.allclose(ad.log_softmax(x).data, np.log(ad.softmax(x).data))

    def test_softplus_is_stable_at_extremes(self):
        with np.errstate(over="raise"):
            y = ad.softplus(_t([800.0, -800.0]))
        assert np.allclose(y.data, [800.0, 0.0])

    def test_linear_matches_matmul_plus_bias(self):
        x, w, b = _rand((2, 3, 4), 40), _rand((4, 5), 41), _rand((5,), 42)
        out = ad.linear(x, w, b)
        assert out.shape == (2, 3, 5)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=1e-14, atol=1e-14)
        # one row of a batch is the GEMM `matmul` runs, so batch-1 floats do not move
        one = Tensor(x.data[:1])
        assert np.array_equal(ad.linear(one, w, b).data, ad.add(ad.matmul(one, w), b).data)

    def test_attention_matches_unfused_primitives(self):
        # the fused forward runs the same numpy ops in the same order, so the floats agree bit for bit
        q, k, v = _rand((2, 3, 4), 43), _rand((2, 5, 4), 44), _rand((2, 5, 4), 45)
        keep = np.ones((2, 1, 1, 5))
        keep[1, 0, 0, 3:] = 0.0

        def heads(x):
            return ad.transpose(ad.reshape(x, (2, x.shape[1], 2, 2)), (0, 2, 1, 3))

        scores = ad.scale(ad.matmul(heads(q), ad.transpose(heads(k), (0, 1, 3, 2))), 1.0 / np.sqrt(2.0))
        attn = ad.softmax(ad.add(scores, (1.0 - keep) * -1e9), axis=-1)
        want = ad.reshape(ad.transpose(ad.matmul(attn, heads(v)), (0, 2, 1, 3)), (2, 3, 4))
        got = ad.attention(q, k, v, 2, keep)
        assert np.array_equal(got.data, want.data)
        assert np.all(attn.data[1, :, :, 3:] < 1e-300)

    def test_embedding_lookup_picks_rows(self):
        table = _t([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = ad.embedding_lookup(table, np.array([2, 0]))
        assert np.allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])


# --- backward mechanics -------------------------------------------------------


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = _rand((3, 4), 3)
        with Tape() as tape:
            loss = ad.sum_(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_elementwise_square(self):
        x = _t([1.0, 2.0])
        with Tape() as tape:
            loss = ad.sum_(ad.mul(x, x))
        backward(tape, loss)
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_reused_tensor_accumulates(self):
        x = _t([1.0, 1.0])
        with Tape() as tape:
            loss = ad.add(ad.sum_(x), ad.sum_(x))
        backward(tape, loss)
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_unused_branch_gets_no_gradient(self):
        x = _t([1.0])
        y = _t([1.0])
        with Tape() as tape:
            dead = ad.mul(y, y)  # noqa: F841 - recorded but not part of the loss
            loss = ad.sum_(x)
        backward(tape, loss)
        assert y.grad is None

    def test_fused_primitives_record_one_node(self):
        x, w, b = _rand((2, 3, 4), 46), _rand((4, 4), 47), _rand((4,), 48)
        with Tape() as tape:
            y = ad.linear(x, w, b)
            ad.attention(y, y, y, 2, None)
        assert len(tape.nodes) == 2

    def test_non_scalar_loss_rejected(self):
        x = _t([1.0, 2.0])
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_no_tape_records_nothing(self):
        x = _t([1.0])
        tape = Tape()
        y = ad.mul(x, x)  # outside any active tape
        assert tape.nodes == [] and y.requires_grad is False

    def test_dtype_mixing_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(ValueError):
            ad.add(a, b)
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 2), np.float32)), Tensor(np.ones((2, 2), np.float64)))
        x, w = Tensor(np.ones((1, 2, 2))), Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.linear(x, w, Tensor(np.ones(2, np.float32)))
        with pytest.raises(ValueError):
            ad.attention(x, x, Tensor(np.ones((1, 2, 2), np.float32)), 1, None)

    def test_check_finite_raises(self):
        with pytest.raises(NumericError):
            ad.check_finite(_t([np.inf]), "logits")


# --- finite-difference checks ---------------------------------------------------


class TestGradChecks:
    TOL = 1e-4

    def check(self, f, tensors):
        assert check_gradients(f, tensors) < self.TOL

    def test_add_broadcast(self):
        a, b = _rand((3, 4), 10), _rand((4,), 11)
        self.check(lambda: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_sub_and_neg(self):
        a, b = _rand((3, 4), 12), _rand((3, 1), 13)
        self.check(lambda: ad.sum_(ad.mul(ad.sub(a, b), ad.neg(a))), [a, b])

    def test_mul_broadcast(self):
        a, b = _rand((2, 3, 4), 14), _rand((3, 4), 15)
        self.check(lambda: ad.sum_(ad.mul(a, b)), [a, b])

    def test_scale(self):
        a = _rand((5,), 16)
        self.check(lambda: ad.sum_(ad.scale(ad.mul(a, a), -2.5)), [a])

    def test_matmul_2d(self):
        a, b = _rand((3, 4), 17), _rand((4, 2), 18)
        self.check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])

    def test_matmul_batched_broadcast(self):
        a, b = _rand((2, 3, 4), 19), _rand((4, 5), 20)
        self.check(lambda: ad.sum_(ad.matmul(a, b)), [a, b])

    def test_reshape_transpose(self):
        a = _rand((2, 6), 21)
        self.check(
            lambda: ad.sum_(ad.mul(ad.transpose(ad.reshape(a, (3, 4)), (1, 0)),
                                   ad.transpose(ad.reshape(a, (3, 4)), (1, 0)))),
            [a],
        )

    def test_concat(self):
        a, b = _rand((2, 3), 22), _rand((2, 2), 23)
        self.check(lambda: ad.sum_(ad.mul(ad.concat([a, b], axis=1), ad.concat([a, b], axis=1))), [a, b])

    def test_slice(self):
        a = _rand((4, 5), 24)
        self.check(lambda: ad.sum_(ad.mul(ad.slice_(a, (slice(1, 3), slice(0, 4))),
                                          ad.slice_(a, (slice(1, 3), slice(0, 4))))), [a])

    def test_embedding_lookup(self):
        table = _rand((6, 3), 25)
        ids = np.array([0, 2, 2, 5])
        self.check(lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids),
                                          ad.embedding_lookup(table, ids))), [table])

    def test_gather(self):
        a = _rand((3, 7), 26)
        idx = np.array([[1], [0], [6]])
        self.check(lambda: ad.sum_(ad.mul(ad.gather(a, idx, axis=1), ad.gather(a, idx, axis=1))), [a])

    def test_sum_axis_keepdims(self):
        a = _rand((3, 4), 27)
        self.check(lambda: ad.sum_(ad.mul(ad.sum_(a, axis=1, keepdims=True), ad.sum_(a, axis=1, keepdims=True))), [a])

    def test_mean(self):
        a = _rand((3, 4), 28)
        self.check(lambda: ad.mul(ad.mean(ad.mul(a, a)), ad.mean(ad.mul(a, a))), [a])

    def test_softmax(self):
        a = _rand((2, 5), 29)
        w = Tensor(np.linspace(0.5, 1.5, 10).reshape(2, 5))
        self.check(lambda: ad.sum_(ad.mul(ad.softmax(a, axis=-1), w)), [a])

    def test_log_softmax(self):
        a = _rand((2, 5), 30)
        w = Tensor(np.linspace(-1.0, 1.0, 10).reshape(2, 5))
        self.check(lambda: ad.sum_(ad.mul(ad.log_softmax(a, axis=-1), w)), [a])

    def test_layer_norm(self):
        a = _rand((2, 6), 31)
        w = Tensor(np.linspace(0.1, 1.2, 12).reshape(2, 6))
        self.check(lambda: ad.sum_(ad.mul(ad.layer_norm(a), w)), [a])

    def test_gelu(self):
        a = _rand((4, 3), 32)
        self.check(lambda: ad.sum_(ad.gelu(a)), [a])

    def test_softplus(self):
        a = _rand((5,), 34)
        self.check(lambda: ad.sum_(ad.softplus(a)), [a])

    def test_linear_3d_with_bias(self):
        x, w, b = _rand((2, 3, 4), 50), _rand((4, 5), 51), _rand((5,), 52)
        out_w = Tensor(np.linspace(-1.0, 1.0, 30).reshape(2, 3, 5))
        self.check(lambda: ad.sum_(ad.mul(ad.linear(x, w, b), out_w)), [x, w, b])

    def test_linear_on_sliced_input_without_bias(self):
        big, w = _rand((2, 4, 3), 53), _rand((3, 2), 54)
        out_w = Tensor(np.linspace(0.5, 2.0, 12).reshape(2, 3, 2))
        # a slice past the first row of each batch is not contiguous
        self.check(lambda: ad.sum_(ad.mul(ad.linear(ad.slice_(big, (slice(None), slice(1, None))), w), out_w)),
                   [big, w])

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention(self, masked):
        q, k, v = _rand((2, 3, 4), 55), _rand((2, 5, 4), 56), _rand((2, 5, 4), 57)
        keep = None
        if masked:
            keep = np.ones((2, 1, 1, 5))
            keep[0, 0, 0, 4] = keep[1, 0, 0, 2:] = 0.0
        out_w = Tensor(np.linspace(-1.5, 1.5, 24).reshape(2, 3, 4))
        self.check(lambda: ad.sum_(ad.mul(ad.attention(q, k, v, 2, keep), out_w)), [q, k, v])

    def test_small_transformer_block_composite(self):
        x = _rand((2, 4), 36, scale=0.5)
        w1 = _rand((4, 8), 37, scale=0.5)
        w2 = _rand((8, 4), 38, scale=0.5)

        def f():
            h = ad.gelu(ad.matmul(ad.layer_norm(x), w1))
            out = ad.matmul(h, w2)
            return ad.sum_(ad.mul(out, out))

        self.check(f, [x, w1, w2])

    def test_float32_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            check_gradients(lambda: ad.sum_(a), [a])


# --- optimizer -------------------------------------------------------------------


class TestAdam:
    def test_first_step_size_close_to_lr(self):
        p = _t([0.0])
        p.grad = np.array([5.0])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.1)
        assert abs(abs(p.data[0]) - 0.1) < 1e-6

    def test_sign_symmetry(self):
        a, b = _t([0.0]), _t([0.0])
        a.grad, b.grad = np.array([3.0]), np.array([-3.0])
        adam_step({"a": a, "b": b}, AdamState(), lr=0.05)
        assert np.allclose(a.data, -b.data)

    def test_missing_grad_is_skipped(self):
        p = _t([1.0])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.1)
        assert p.data[0] == 1.0
        assert "p" not in state.m

    def test_nan_gradient_raises(self):
        p = _t([0.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            adam_step({"p": p}, AdamState(), lr=0.1)

    def test_bias_correction_against_reference(self):
        p = _t([0.0])
        state = AdamState()
        grads = [0.4, -0.2, 0.9]
        m = v = 0.0
        ref = 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            adam_step({"p": p}, state, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(p.data[0], ref)

    def test_state_dtype_follows_param(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(2, dtype=np.float32)
        state = AdamState()
        adam_step({"p": p}, state, lr=0.1)
        assert state.m["p"].dtype == np.float32
        assert p.data.dtype == np.float32


class TestClip:
    def test_norm_reported_and_scaled(self):
        a, b = _t([3.0]), _t([4.0])
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(a.grad, [0.6])
        assert np.allclose(b.grad, [0.8])

    def test_no_scaling_under_limit(self):
        a = _t([1.0])
        a.grad = np.array([0.5])
        clip_global_norm({"a": a}, max_norm=10.0)
        assert np.allclose(a.grad, [0.5])


# --- tensor container --------------------------------------------------------------


class TestTensorStore:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        tensors = {
            "w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([1.5, -2.5], dtype=np.float32),
        }
        save_tensors(path, tensors, meta={"step": 7})
        back, meta = load_tensors(path)
        assert meta == {"step": 7}
        assert back["w"].dtype == np.float64 and np.array_equal(back["w"], tensors["w"])
        assert back["b"].dtype == np.float32 and np.array_equal(back["b"], tensors["b"])

    def test_byte_identical_rewrite(self, tmp_path):
        tensors = {"w": np.ones((3, 3), dtype=np.float32)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, tensors)
        save_tensors(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "c.bin"
        save_tensors(path, {"w": np.zeros(1, dtype=np.float32)})
        assert path.read_bytes().startswith(b"HLSDBG1")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_tensors(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_tensors(path, {"w": np.ones(64, dtype=np.float64)})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataError):
            load_tensors(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "i.bin", {"w": np.zeros(2, dtype=np.int64)})
