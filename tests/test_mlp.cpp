#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "linalg/backend.hpp"

namespace dsml::ml {
namespace {

linalg::Matrix toy_inputs(std::size_t n, Rng& rng) {
  linalg::Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  return x;
}

std::vector<double> toy_targets(const linalg::Matrix& x) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // Mildly nonlinear, range ~[0,1].
    y[i] = 0.3 * x(i, 0) + 0.4 * x(i, 1) * x(i, 1) + 0.1;
  }
  return y;
}

TEST(Mlp, ConstructionShape) {
  Rng rng(1);
  Mlp net(3, {5, 4}, rng);
  EXPECT_EQ(net.n_inputs(), 3u);
  ASSERT_EQ(net.hidden_sizes().size(), 2u);
  EXPECT_EQ(net.hidden_sizes()[0], 5u);
  EXPECT_EQ(net.hidden_sizes()[1], 4u);
  // Weights: 3*5+5 + 5*4+4 + 4*1+1 = 49.
  EXPECT_EQ(net.parameter_count(), 49u);
}

TEST(Mlp, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  Mlp na(2, {4}, a);
  Mlp nb(2, {4}, b);
  const std::vector<double> x = {0.3, 0.8};
  EXPECT_DOUBLE_EQ(na.predict(x), nb.predict(x));
}

TEST(Mlp, PredictInputSizeChecked) {
  Rng rng(2);
  Mlp net(3, {2}, rng);
  const std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(net.predict(bad), InvalidArgument);
}

TEST(Mlp, NoHiddenLayerIsLinearModel) {
  Rng rng(3);
  Mlp net(2, {}, rng);
  // Output must be an affine function of inputs: check superposition.
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> e1 = {1.0, 0.0};
  const std::vector<double> e2 = {0.0, 1.0};
  const std::vector<double> both = {1.0, 1.0};
  const double b = net.predict(zero);
  EXPECT_NEAR(net.predict(both) - b,
              (net.predict(e1) - b) + (net.predict(e2) - b), 1e-12);
}

TEST(Mlp, TrainingReducesError) {
  Rng rng(4);
  const linalg::Matrix x = toy_inputs(64, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {6}, rng);
  const double before = net.mse(x, y);
  for (int epoch = 0; epoch < 200; ++epoch) {
    net.train_epoch(x, y, 0.2, 0.9, rng);
  }
  const double after = net.mse(x, y);
  EXPECT_LT(after, before * 0.2);
  EXPECT_LT(after, 0.01);
}

TEST(Mlp, BatchPredictionMatchesSingle) {
  Rng rng(5);
  const linalg::Matrix x = toy_inputs(8, rng);
  Mlp net(2, {3}, rng);
  const auto batch = net.predict(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], net.predict(x.row(i)));
  }
}

TEST(Mlp, RemoveHiddenUnitShrinksLayer) {
  Rng rng(6);
  Mlp net(2, {5}, rng);
  const std::size_t params_before = net.parameter_count();
  net.remove_hidden_unit(0, 2);
  EXPECT_EQ(net.hidden_sizes()[0], 4u);
  // Removed: 2 incoming weights + 1 bias + 1 outgoing weight = 4.
  EXPECT_EQ(net.parameter_count(), params_before - 4);
  const std::vector<double> x = {0.5, 0.5};
  EXPECT_TRUE(std::isfinite(net.predict(x)));
}

TEST(Mlp, RemoveLastUnitThrows) {
  Rng rng(7);
  Mlp net(2, {1}, rng);
  EXPECT_THROW(net.remove_hidden_unit(0, 0), InvalidArgument);
}

TEST(Mlp, AddHiddenUnitPreservesExistingBehaviourApproximately) {
  Rng rng(8);
  Mlp net(2, {3}, rng);
  const std::vector<double> x = {0.4, 0.6};
  const double before = net.predict(x);
  net.add_hidden_unit(0, rng);
  EXPECT_EQ(net.hidden_sizes()[0], 4u);
  // The new unit has small random outgoing weights, so the output moves
  // a bounded amount, not wildly.
  EXPECT_NEAR(net.predict(x), before, 1.0);
}

TEST(Mlp, DisableInputRemovesItsEffect) {
  Rng rng(9);
  Mlp net(2, {4}, rng);
  net.disable_input(1);
  EXPECT_FALSE(net.input_enabled(1));
  EXPECT_TRUE(net.input_enabled(0));
  EXPECT_EQ(net.enabled_input_count(), 1u);
  const std::vector<double> a = {0.5, 0.1};
  const std::vector<double> b = {0.5, 0.9};
  EXPECT_DOUBLE_EQ(net.predict(a), net.predict(b));
}

TEST(Mlp, DisabledInputStaysZeroThroughTraining) {
  Rng rng(10);
  const linalg::Matrix x = toy_inputs(32, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {4}, rng);
  net.disable_input(0);
  for (int epoch = 0; epoch < 50; ++epoch) {
    net.train_epoch(x, y, 0.2, 0.9, rng);
  }
  const std::vector<double> a = {0.0, 0.5};
  const std::vector<double> b = {1.0, 0.5};
  EXPECT_DOUBLE_EQ(net.predict(a), net.predict(b));
}

TEST(Mlp, SaliencyNonNegative) {
  Rng rng(11);
  Mlp net(3, {4}, rng);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_GE(net.hidden_unit_saliency(0, u), 0.0);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(net.input_saliency(i), 0.0);
  }
  net.disable_input(2);
  EXPECT_DOUBLE_EQ(net.input_saliency(2), 0.0);
}

TEST(Mlp, PruneSmallestWeightsReducesParameters) {
  Rng rng(12);
  Mlp net(4, {8}, rng);
  const std::size_t before = net.parameter_count();
  net.prune_smallest_weights(0.25);
  EXPECT_LT(net.parameter_count(), before);
  // Biases are exempt, weights only: 4*8 + 8*1 = 40 weights, 25% = 10 frozen.
  EXPECT_EQ(net.parameter_count(), before - 10);
}

TEST(Mlp, PruneZeroFractionNoop) {
  Rng rng(13);
  Mlp net(2, {4}, rng);
  const std::size_t before = net.parameter_count();
  net.prune_smallest_weights(0.0);
  EXPECT_EQ(net.parameter_count(), before);
}

TEST(Mlp, PrunedWeightsStayFrozenDuringTraining) {
  Rng rng(14);
  const linalg::Matrix x = toy_inputs(32, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {4}, rng);
  net.prune_smallest_weights(0.5);
  const std::size_t frozen_params = net.parameter_count();
  for (int epoch = 0; epoch < 20; ++epoch) {
    net.train_epoch(x, y, 0.2, 0.9, rng);
  }
  EXPECT_EQ(net.parameter_count(), frozen_params);
}

TEST(Mlp, TrainEpochReturnsMse) {
  Rng rng(15);
  const linalg::Matrix x = toy_inputs(16, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {3}, rng);
  const double mse = net.train_epoch(x, y, 0.1, 0.9, rng);
  EXPECT_GT(mse, 0.0);
  EXPECT_TRUE(std::isfinite(mse));
}

TEST(Mlp, ZeroWidthHiddenLayerThrows) {
  Rng rng(16);
  EXPECT_THROW(Mlp(2, {0}, rng), InvalidArgument);
}

// --- Training against the plain scalar loop ---------------------------------

// A network read back from Mlp::save's bytes, trained by a verbatim copy of
// the per-sample scalar forward pass and SGD-with-momentum loop that
// train_epoch ran before it went through the kernel table. It writes the
// same format back, so save() bytes compare every weight, mask and bias.
struct RefLayer {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> w, mask, vel, b, b_vel;
  bool output = false;

  std::span<double> row(std::vector<double>& m, std::size_t i) {
    return {m.data() + i * cols, cols};
  }
};

struct RefNet {
  std::uint64_t n_inputs = 0;
  std::vector<std::uint64_t> hidden;
  std::vector<bool> enabled;
  std::vector<RefLayer> layers;
};

RefNet ref_from_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  serial::Reader r(in);
  r.expect_tag("mlp");
  RefNet net;
  net.n_inputs = r.u64();
  net.hidden.resize(r.u64());
  for (auto& h : net.hidden) h = r.u64();
  net.enabled.resize(r.u64());
  for (std::size_t i = 0; i < net.enabled.size(); ++i) {
    net.enabled[i] = r.boolean();
  }
  net.layers.resize(r.u64());
  const auto matrix = [&](RefLayer& layer, std::vector<double>& m) {
    layer.rows = r.u64();
    layer.cols = r.u64();
    m.resize(layer.rows * layer.cols);
    for (double& v : m) v = r.f64();
  };
  for (RefLayer& layer : net.layers) {
    matrix(layer, layer.w);
    matrix(layer, layer.mask);
    layer.b = r.f64_vector();
    layer.output = r.boolean();
    layer.vel.assign(layer.w.size(), 0.0);
    layer.b_vel.assign(layer.b.size(), 0.0);
  }
  return net;
}

std::string ref_bytes(const RefNet& net) {
  std::ostringstream out;
  serial::Writer wr(out);
  wr.tag("mlp");
  wr.u64(net.n_inputs);
  wr.u64(net.hidden.size());
  for (auto h : net.hidden) wr.u64(h);
  wr.u64(net.enabled.size());
  for (bool e : net.enabled) wr.boolean(e);
  wr.u64(net.layers.size());
  for (const RefLayer& layer : net.layers) {
    for (const std::vector<double>* m : {&layer.w, &layer.mask}) {
      wr.u64(layer.rows);
      wr.u64(layer.cols);
      for (double v : *m) wr.f64(v);
    }
    wr.f64_vector(layer.b);
    wr.boolean(layer.output);
  }
  return out.str();
}

std::string save_bytes(const Mlp& net) {
  std::ostringstream out;
  serial::Writer wr(out);
  net.save(wr);
  return out.str();
}

double ref_sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void ref_forward_pass(RefNet& net, std::span<const double> x,
                      std::vector<std::vector<double>>& activations) {
  auto& input = activations[0];
  for (std::size_t j = 0; j < net.n_inputs; ++j) {
    input[j] = net.enabled[j] ? x[j] : 0.0;
  }
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    RefLayer& layer = net.layers[li];
    const auto& in = activations[li];
    auto& out = activations[li + 1];
    for (std::size_t i = 0; i < layer.rows; ++i) {
      double z = layer.b[i];
      const auto wrow = layer.row(layer.w, i);
      for (std::size_t j = 0; j < wrow.size(); ++j) z += wrow[j] * in[j];
      out[i] = layer.output ? z : ref_sigmoid(z);
    }
  }
}

double ref_train_epoch(RefNet& net, const linalg::Matrix& x,
                       std::span<const double> y, double learning_rate,
                       double momentum, Rng& rng) {
  auto& layers = net.layers;
  std::vector<std::size_t> order(x.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::vector<double>> activations(layers.size() + 1);
  std::vector<std::vector<double>> deltas(layers.size());
  activations[0].assign(net.n_inputs, 0.0);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    activations[li + 1].assign(layers[li].rows, 0.0);
    deltas[li].assign(layers[li].rows, 0.0);
  }

  double ss = 0.0;
  for (std::size_t sample : order) {
    ref_forward_pass(net, x.row(sample), activations);
    const double yhat = activations.back()[0];
    const double err = yhat - y[sample];
    ss += err * err;

    deltas.back()[0] = err;
    for (std::size_t li = layers.size() - 1; li-- > 0;) {
      RefLayer& next = layers[li + 1];
      auto& delta = deltas[li];
      const auto& delta_next = deltas[li + 1];
      const auto& act = activations[li + 1];
      std::fill(delta.begin(), delta.end(), 0.0);
      for (std::size_t i = 0; i < next.rows; ++i) {
        const double dn = delta_next[i];
        const auto wrow = next.row(next.w, i);
        for (std::size_t j = 0; j < delta.size(); ++j) {
          delta[j] += wrow[j] * dn;
        }
      }
      for (std::size_t j = 0; j < delta.size(); ++j) {
        delta[j] = delta[j] * act[j] * (1.0 - act[j]);
      }
    }
    for (std::size_t li = 0; li < layers.size(); ++li) {
      RefLayer& layer = layers[li];
      const auto& in = activations[li];
      const auto& delta = deltas[li];
      for (std::size_t i = 0; i < layer.rows; ++i) {
        const double di = delta[i];
        auto wrow = layer.row(layer.w, i);
        auto vrow = layer.row(layer.vel, i);
        const auto mrow = layer.row(layer.mask, i);
        for (std::size_t j = 0; j < wrow.size(); ++j) {
          if (mrow[j] == 0.0) continue;
          vrow[j] = momentum * vrow[j] - learning_rate * di * in[j];
          wrow[j] += vrow[j];
        }
        layer.b_vel[i] = momentum * layer.b_vel[i] - learning_rate * di;
        layer.b[i] += layer.b_vel[i];
      }
    }
  }
  return ss / static_cast<double>(y.size());
}

// Hidden widths 1, 3, 5, 11 and 22 put every 2- and 4-lane remainder in both
// the units (forward gemv) and the fan-in (momentum rows); one net is
// pruned and one has a disabled input, so masked weights are frozen inside
// vector lanes. Every backend must reproduce the scalar loop bit for bit.
TEST(Mlp, TrainEpochMatchesTheScalarLoop) {
  struct Shape {
    std::size_t inputs;
    std::vector<std::size_t> hidden;
    double prune;
    bool disable;
  };
  std::vector<Shape> shapes;
  for (std::size_t h : {1ul, 3ul, 5ul, 11ul, 22ul}) {
    shapes.push_back({7, {h}, 0.0, false});
    shapes.push_back({7, {h, 5}, 0.0, false});
  }
  shapes.push_back({22, {11}, 0.3, false});
  shapes.push_back({22, {5, 3}, 0.0, true});

  for (const linalg::Backend backend :
       {linalg::Backend::kNaive, linalg::Backend::kBlocked,
        linalg::Backend::kSimd}) {
    linalg::ScopedBackend pin(backend);
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(linalg::to_string(backend)) + " inputs " +
                   std::to_string(shape.inputs) + " hidden " +
                   std::to_string(shape.hidden.front()) + "/" +
                   std::to_string(shape.hidden.size()));
      Rng data_rng(31);
      linalg::Matrix x(40, shape.inputs);
      std::vector<double> y(x.rows());
      for (std::size_t r = 0; r < x.rows(); ++r) {
        double t = 0.1;
        for (std::size_t j = 0; j < shape.inputs; ++j) {
          x(r, j) = data_rng.uniform();
          t += (j % 2 == 0 ? 0.3 : -0.2) * x(r, j) * x(r, j);
        }
        y[r] = t;
      }
      Rng init(37);
      Mlp net(shape.inputs, shape.hidden, init);
      if (shape.prune > 0.0) net.prune_smallest_weights(shape.prune);
      if (shape.disable) net.disable_input(2);
      RefNet ref = ref_from_bytes(save_bytes(net));

      Rng rng_net(41);
      Rng rng_ref(41);
      for (int epoch = 0; epoch < 3; ++epoch) {
        const double lr = 0.3 / (1.0 + epoch);
        const double got = net.train_epoch(x, y, lr, 0.9, rng_net);
        const double want = ref_train_epoch(ref, x, y, lr, 0.9, rng_ref);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "epoch " << epoch;
      }
      ASSERT_EQ(save_bytes(net), ref_bytes(ref));
    }
  }
}

}  // namespace
}  // namespace dsml::ml
