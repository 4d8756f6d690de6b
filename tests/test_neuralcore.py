"""Layer math, losses, Adam and finite-difference gradient verification."""

import json
import struct

import numpy as np
import pytest

from fusetrack.errors import (
    CacheError,
    ConfigError,
    DivergenceError,
    EmptyBatchError,
    ShapeError,
)
from fusetrack.neuralcore import (
    Adam,
    Bilstm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2x2,
    Network,
    Relu,
    Softmax,
    clip_gradient_norm,
    cross_entropy_grad,
    cross_entropy_loss,
    gradient_check_network,
    l2_displacement_grad,
    l2_displacement_loss,
    softmax,
    total_loss,
)


def rng_of(seed=0):
    return np.random.default_rng(seed)


class TestLayerForwardExamples:
    def test_dense_identity(self):
        layer = Dense(2, 2, rng_of())
        layer.w.value[...] = np.eye(2)
        layer.b.value[...] = 0.0
        y, _ = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_maxpool_block(self):
        layer = MaxPool2x2()
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, [[[[4.0]]]])

    def test_maxpool_ceil_mode_keeps_partial_edge(self):
        layer = MaxPool2x2()
        x = np.arange(6.0).reshape(1, 1, 1, 6)  # H=1 stays H=1
        y, _ = layer.forward(x)
        assert y.shape == (1, 1, 1, 3)
        np.testing.assert_array_equal(y[0, 0, 0], [1.0, 3.0, 5.0])
        x2 = np.arange(3.0).reshape(1, 1, 1, 3)  # odd W pools the last cell alone
        y2, _ = layer.forward(x2)
        np.testing.assert_array_equal(y2[0, 0, 0], [1.0, 2.0])

    def test_conv_scaling_kernel(self):
        layer = Conv2D(1, 1, 1, 1, rng_of())
        layer.w.value[...] = 2.0
        layer.b.value[...] = 0.0
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y[0, 0], [[2.0, 4.0], [6.0, 8.0]])

    def test_relu_blocks_dead_units(self):
        layer = Relu()
        y, ctx = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])
        dx = layer.backward(np.array([[5.0, 5.0]]), ctx)
        np.testing.assert_array_equal(dx, [[0.0, 5.0]])

    def test_dense_gradient_example(self):
        # y = W x, loss = y_0, x = (1, 2): dW row 0 is x
        layer = Dense(2, 2, rng_of())
        x = np.array([[1.0, 2.0]])
        _, ctx = layer.forward(x)
        layer.backward(np.array([[1.0, 0.0]]), ctx)
        np.testing.assert_array_equal(layer.w.grad[0], [1.0, 2.0])
        np.testing.assert_array_equal(layer.w.grad[1], [0.0, 0.0])

    def test_maxpool_tie_routes_to_first_in_row_major_order(self):
        layer = MaxPool2x2()
        x = np.full((1, 1, 2, 2), 3.0)
        y, ctx = layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)), ctx)
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_dropout_frozen_mask_reproducible(self):
        layer = Dropout(0.5)
        x = np.ones((4, 8))
        y1, _ = layer.forward(x, training=True, rng=np.random.default_rng(3))
        y2, _ = layer.forward(x, training=True, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(y1, y2)
        y_eval, _ = layer.forward(x, training=False)
        np.testing.assert_array_equal(y_eval, x)

    def test_dropout_rate_validated(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)

    def test_conv_shape_mismatch_raises(self):
        layer = Conv2D(1, 2, 3, 3, rng_of())
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 2, 2)))

    def test_softmax_rows_sum_to_one(self):
        layer = Softmax()
        y, _ = layer.forward(rng_of(1).normal(0, 10, (16, 5)))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


class TestLosses:
    def test_l2_unit_example_sqrt2(self):
        assert l2_displacement_loss([(1.0, 1.0)], [(0.0, 0.0)]) == pytest.approx(
            np.sqrt(2.0), abs=1e-12)

    def test_l2_zero_at_exact_match(self):
        assert l2_displacement_loss([(1.0, 2.0)], [(1.0, 2.0)]) == 0.0

    def test_l2_mean_of_norms(self):
        loss = l2_displacement_loss([(1.0, 1.0), (3.0, 4.0)],
                                    [(0.0, 0.0), (3.0, 4.0)])
        assert loss == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)

    def test_l2_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            l2_displacement_loss(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_ce_uniform_logits(self):
        assert cross_entropy_loss([(0.0, 0.0)], [0]) == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_ce_confident_correct_and_wrong(self):
        assert cross_entropy_loss([(10.0, -10.0)], [0]) == pytest.approx(
            2.06e-9, rel=0.01)
        assert cross_entropy_loss([(10.0, -10.0)], [1]) == pytest.approx(
            20.0, abs=1e-6)

    def test_ce_nonnegative_and_softmax_normalized(self):
        rng = rng_of(2)
        for _ in range(20):
            logits = rng.normal(0, 5, (8, 2))
            labels = rng.integers(0, 2, 8)
            assert cross_entropy_loss(logits, labels) >= 0.0
            np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0,
                                       atol=1e-12)

    def test_total_loss_composition(self):
        assert total_loss(1.0, 0.5, 1.0) == 1.5
        assert total_loss(1.0, 0.5, 0.0) == 1.0
        assert total_loss(0.0, 0.0, 123.0) == 0.0

    def test_loss_gradients_match_finite_differences(self):
        rng = rng_of(3)
        pred = rng.normal(0, 1, (5, 2))
        target = rng.normal(0, 1, (5, 2))
        grad = l2_displacement_grad(pred, target)
        h = 1e-6
        for i in range(5):
            for j in range(2):
                p = pred.copy()
                p[i, j] += h
                lp = l2_displacement_loss(p, target)
                p[i, j] -= 2 * h
                lm = l2_displacement_loss(p, target)
                assert grad[i, j] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)
        logits = rng.normal(0, 2, (5, 2))
        labels = rng.integers(0, 2, 5)
        cgrad = cross_entropy_grad(logits, labels)
        for i in range(5):
            for j in range(2):
                q = logits.copy()
                q[i, j] += h
                lp = cross_entropy_loss(q, labels)
                q[i, j] -= 2 * h
                lm = cross_entropy_loss(q, labels)
                assert cgrad[i, j] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)


class TestAdam:
    def test_first_step_bias_corrected(self):
        p = Dense(1, 1, rng_of()).w
        p.value[...] = 0.0
        p.grad[...] = 1.0
        adam = Adam([p], lr=1e-3, weight_decay=0.0)
        adam.step()
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        assert p.value[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_zero_decay_is_identity(self):
        p = Dense(1, 1, rng_of()).w
        p.value[...] = 0.7
        p.grad[...] = 0.0
        adam = Adam([p], weight_decay=0.0)
        adam.step()
        assert p.value[0, 0] == 0.7

    def test_decoupled_decay_only(self):
        p = Dense(1, 1, rng_of()).w
        p.value[...] = 1.0
        p.grad[...] = 0.0
        adam = Adam([p], lr=1e-3, weight_decay=1e-5)
        adam.step()
        assert p.value[0, 0] == pytest.approx(0.99999999, abs=1e-12)

    def test_non_finite_gradient_raises(self):
        p = Dense(1, 1, rng_of()).w
        p.grad[...] = np.nan
        with pytest.raises(DivergenceError):
            Adam([p]).step()

    def test_clip_gradient_norm(self):
        p = Dense(2, 2, rng_of()).w
        p.grad[...] = 10.0
        norm = clip_gradient_norm([p], 5.0)
        assert norm == pytest.approx(20.0)
        assert np.sqrt((p.grad ** 2).sum()) == pytest.approx(5.0)


def tiny_network(trunk, flat_dim, seed=0):
    rng = np.random.default_rng(seed)
    reg = Dense(flat_dim, 2, rng)
    cls = Dense(flat_dim, 2, rng)
    return reg, cls


def check_net(trunk, input_shape, seed, **kwargs):
    rng = np.random.default_rng(seed)
    shape = input_shape
    for layer in trunk:
        shape = layer.out_shape(shape)
    flat = int(np.prod(shape))
    if len(shape) > 1:
        trunk = trunk + [Flatten()]
    net = Network(trunk, Dense(flat, 2, rng), Dense(flat, 2, rng), input_shape)
    n = 3
    x = rng.normal(0, 1, (n, *input_shape))
    targets = rng.normal(0, 1, (n, 2))
    labels = rng.integers(0, 2, n)
    return gradient_check_network(net, x, targets, labels, seed=seed, **kwargs)


class TestGradientChecks:
    def test_linear_model_nearly_exact(self):
        rng = np.random.default_rng(0)
        net = Network([], Dense(6, 2, rng), Dense(6, 2, rng), (6,))
        x = rng.normal(0, 1, (4, 6))
        report = gradient_check_network(net, x, rng.normal(0, 1, (4, 2)),
                                        rng.integers(0, 2, 4))
        assert report.passed
        assert report.max_relative_error < 1e-7

    def test_conv_layer(self):
        rng = np.random.default_rng(1)
        report = check_net([Conv2D(1, 3, 2, 3, rng)], (1, 6, 8), seed=1)
        assert report.passed, str(report)

    def test_maxpool_routing(self):
        rng = np.random.default_rng(2)
        report = check_net([Conv2D(1, 2, 2, 2, rng), MaxPool2x2()], (1, 5, 7), seed=2)
        assert report.passed, str(report)

    def test_dropout_frozen_mask(self):
        report = check_net([Dense(10, 8, np.random.default_rng(3)), Dropout(0.4)],
                           (10,), seed=3)
        assert report.passed, str(report)

    def test_bilstm_through_time(self):
        rng = np.random.default_rng(4)
        report = check_net([Bilstm(4, 6, rng)], (1, 4, 5), seed=4)
        assert report.passed, str(report)

    def test_softmax_layer(self):
        rng = np.random.default_rng(5)
        report = check_net([Dense(6, 6, rng), Softmax()], (6,), seed=5)
        assert report.passed, str(report)

    def test_relu_and_flatten_stack(self):
        rng = np.random.default_rng(6)
        report = check_net([Conv2D(1, 2, 3, 3, rng), Relu(), MaxPool2x2()],
                           (1, 7, 9), seed=6)
        assert report.passed, str(report)

    def test_corrupted_dense_backward_fails(self):
        # transposed weight-gradient accumulation must be caught
        import types

        def bad_backward(self, dy, ctx):
            x = ctx
            self.w.grad += (dy.T @ x).T  # wrong: transposed accumulation
            self.b.grad += dy.sum(axis=0)
            return dy @ self.w.value

        rng = np.random.default_rng(7)
        corrupted = Dense(6, 6, rng)
        corrupted.backward = types.MethodType(bad_backward, corrupted)
        trunk = [corrupted, Relu()]
        net = Network(trunk, Dense(6, 2, rng), Dense(6, 2, rng), (6,))
        x = rng.normal(0, 1, (3, 6))
        report = gradient_check_network(net, x, rng.normal(0, 1, (3, 2)),
                                        rng.integers(0, 2, 3))
        assert not report.passed


class TestNetwork:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        trunk = [Conv2D(1, 4, 3, 5, rng), Relu(), MaxPool2x2(), Flatten()]
        shape = (1, 12, 50)
        s = shape
        for layer in trunk:
            s = layer.out_shape(s)
        return Network(trunk, Dense(s[0], 2, rng), Dense(s[0], 2, rng), shape)

    def test_param_names_of_the_s1_network_and_the_wifi_vae(self):
        from fusetrack.pdr import PdrModelConfig, build_model
        from fusetrack.wifi import VaeConfig, WifiVae

        heads = ["reg_head.w", "reg_head.b", "cls_head.w", "cls_head.b"]
        assert [p.name for p in build_model(PdrModelConfig()).net.params()] == [
            "trunk.0.conv2d.w", "trunk.0.conv2d.b", "trunk.3.conv2d.w",
            "trunk.3.conv2d.b", "trunk.6.conv2d.w", "trunk.6.conv2d.b",
            "trunk.11.dense.w", "trunk.11.dense.b", *heads]
        assert [p.name for p in WifiVae(5, VaeConfig()).params()] == [
            f"{layer}.{w}" for layer in ("enc_hidden", "enc_mu", "enc_logvar",
                                         "dec_hidden", "dec_out", "reg_head")
            for w in "wb"]

    def test_loss_gradient_replaces_the_previous_one(self):
        net = self.build()
        rng = np.random.default_rng(2)
        x, targets, labels = rng.normal(0, 1, (3, 1, 12, 50)), rng.normal(0, 1, (3, 2)), [0, 1, 1]
        net.loss(x, targets, labels, 1.0, training=True, grad=True)
        first = [p.grad.copy() for p in net.params()]
        total, regr, ce = net.loss(x, targets, labels, 1.0, training=True, grad=True)
        for p, g in zip(net.params(), first):
            np.testing.assert_array_equal(p.grad, g)
        assert total == total_loss(regr, ce, 1.0)
        with pytest.raises(ConfigError):
            net.loss(x, targets, labels, 1.0, grad=True)

    def test_forward_deterministic(self):
        net = self.build()
        x = np.random.default_rng(1).normal(0, 1, (2, 1, 12, 50))
        r1, l1, _ = net.forward(x, training=True, rng=np.random.default_rng(9))
        r2, l2, _ = net.forward(x, training=True, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(l1, l2)

    def test_eval_forward_cache_holds_no_array(self):
        def arrays_in(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays_in(item)

        net = self.build()
        x = np.random.default_rng(1).normal(0, 1, (3, 1, 12, 50))
        r_eval, l_eval, cache = net.forward(x, training=False)
        assert not list(arrays_in(cache))
        # the trunk has no dropout, so training mode computes the same outputs
        r_train, l_train, train_cache = net.forward(x, training=True)
        assert list(arrays_in(train_cache))
        np.testing.assert_array_equal(r_eval, r_train)
        np.testing.assert_array_equal(l_eval, l_train)

    def test_shape_error_names_layer(self):
        net = self.build()
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 1, 12, 49)))

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        net = self.build(seed=3)
        path = tmp_path / "model.tfnn"
        net.extra_header["note"] = "test"
        net.save(path)
        loaded = Network.load(path)
        assert loaded.extra_header["note"] == "test"
        x = np.random.default_rng(2).normal(0, 1, (2, 1, 12, 50))
        r1, l1, _ = net.forward(x)
        r2, l2, _ = loaded.forward(x)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(l1, l2)

    def test_checkpoint_magic(self, tmp_path):
        net = self.build()
        path = tmp_path / "model.tfnn"
        net.save(path)
        assert path.read_bytes()[:4] == b"TFNN"

    def rewrite_header(self, tmp_path, edit):
        """A saved checkpoint whose JSON header bytes went through ``edit``."""
        path = tmp_path / "model.tfnn"
        self.build().save(path)
        blob = path.read_bytes()
        magic, version, json_len = struct.unpack("<4sII", blob[:12])
        header = edit(blob[12:12 + json_len])
        path.write_bytes(struct.pack("<4sII", magic, version, len(header))
                         + header + blob[12 + json_len:])
        return path

    def test_checkpoint_garbled_header_raises_cache_error(self, tmp_path):
        path = self.rewrite_header(tmp_path, lambda h: h.replace(b'"trunk":', b'"trunk"'))
        with pytest.raises(CacheError, match="corrupt checkpoint header"):
            Network.load(path)

    def test_checkpoint_without_trunk_raises_cache_error(self, tmp_path):
        def drop_trunk(h):
            spec = json.loads(h)
            del spec["trunk"]
            return json.dumps(spec).encode()
        with pytest.raises(CacheError, match="trunk"):
            Network.load(self.rewrite_header(tmp_path, drop_trunk))
