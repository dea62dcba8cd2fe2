#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "data/encoder.hpp"
#include "ml/linreg.hpp"
#include "ml/mlp.hpp"
#include "ml/model_zoo.hpp"
#include "ml/nn_models.hpp"

namespace dsml::ml {
namespace {

data::Dataset make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<std::string> vendor(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    vendor[i] = rng.chance(0.5) ? "amd corp" : "intel corp";  // spaces!
    y[i] = 40.0 + 3.0 * x1[i] + x2[i] * x2[i] * 0.2 +
           (vendor[i][0] == 'a' ? 4.0 : 0.0) + rng.gaussian(0.0, 0.2);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  ds.add_feature(data::Column::categorical("vendor", std::move(vendor)));
  ds.set_target("y", std::move(y));
  return ds;
}

class SerializeModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SerializeModelTest, RoundTripPredictionsBitIdentical) {
  const data::Dataset train = make_data(80, 1);
  const data::Dataset test = make_data(30, 2);
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.25;
  auto model = make_model(GetParam(), zoo).make();
  model->fit(train);

  std::stringstream buffer;
  save_model(*model, buffer);
  const auto restored = load_model(buffer);

  ASSERT_TRUE(restored->fitted());
  EXPECT_EQ(restored->name(), model->name());
  const auto original = model->predict(test);
  const auto reloaded = restored->predict(test);
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original[i], reloaded[i]);
  }
}

TEST_P(SerializeModelTest, ImportanceSurvivesRoundTrip) {
  const data::Dataset train = make_data(80, 3);
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.25;
  auto model = make_model(GetParam(), zoo).make();
  model->fit(train);

  std::stringstream buffer;
  save_model(*model, buffer);
  const auto restored = load_model(buffer);
  const auto a = model->importance();
  const auto b = restored->importance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].importance, b[i].importance);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModelKinds, SerializeModelTest,
                         ::testing::Values("LR-E", "LR-B", "LR-S", "NN-S",
                                           "NN-Q", "NN-E"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(
                               std::remove(name.begin(), name.end(), '-'),
                               name.end());
                           return name;
                         });

TEST(Serialize, FileRoundTrip) {
  const data::Dataset train = make_data(60, 4);
  LinearRegression model;
  model.fit(train);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dsml_model_test" /
       "model.dsml").string();
  save_model(model, path);
  const auto restored = load_model(path);
  EXPECT_EQ(restored->name(), "LR-B");
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "dsml_model_test");
}

TEST(Serialize, UnfittedModelThrows) {
  LinearRegression model;
  std::stringstream buffer;
  EXPECT_THROW(save_model(model, buffer), InvalidArgument);
}

TEST(Serialize, GarbageInputThrows) {
  std::stringstream buffer("not a model at all");
  EXPECT_THROW(load_model(buffer), IoError);
}

TEST(Serialize, TruncatedInputThrows) {
  const data::Dataset train = make_data(60, 5);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), IoError);
}

TEST(Serialize, TruncationErrorsReportAByteOffset) {
  const data::Dataset train = make_data(60, 6);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 10));
  try {
    load_model(truncated);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // The message points at where the stream died so the artifact can be
    // inspected with xxd -s <offset>.
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, TrailingGarbageThrowsWithByteOffset) {
  const data::Dataset train = make_data(60, 7);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  std::stringstream padded(buffer.str() + " unexpected trailing junk");
  try {
    load_model(padded);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing garbage"), std::string::npos) << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
    EXPECT_NE(what.find("unexpected"), std::string::npos) << what;
  }
}

TEST(Serialize, CleanStreamHasNoTrailingGarbageFalsePositive) {
  // Round-tripping an untouched artifact must not trip the trailing-garbage
  // detector (trailing whitespace from the writer is fine).
  const data::Dataset train = make_data(60, 8);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  EXPECT_NO_THROW(load_model(buffer));
}

TEST(SerialPrimitives, ExpectEndAcceptsWhitespaceOnly) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.u64(1);
  serial::Reader reader(buffer);
  EXPECT_EQ(reader.u64(), 1u);
  EXPECT_NO_THROW(reader.expect_end());
}

TEST(SerialPrimitives, ReaderOffsetAdvancesWithConsumption) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.u64(12345);
  writer.str("abc");
  serial::Reader reader(buffer);
  const std::int64_t start = reader.offset();
  EXPECT_EQ(reader.u64(), 12345u);
  EXPECT_GT(reader.offset(), start);
  EXPECT_EQ(reader.str(), "abc");
}

TEST(Serialize, WrongVersionThrows) {
  std::stringstream buffer("dsml-model\n999 6:linreg ");
  EXPECT_THROW(load_model(buffer), IoError);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model(std::string("/no/such/file.dsml")), IoError);
}

TEST(SerialPrimitives, StringWithSpacesRoundTrips) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.str("hello world: 1,2\n3");
  writer.u64(42);
  serial::Reader reader(buffer);
  EXPECT_EQ(reader.str(), "hello world: 1,2\n3");
  EXPECT_EQ(reader.u64(), 42u);
}

TEST(SerialPrimitives, DoubleExactRoundTrip) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  const double values[] = {0.1, -1e-300, 3.141592653589793, 1e300, 0.0};
  for (double v : values) writer.f64(v);
  serial::Reader reader(buffer);
  for (double v : values) {
    EXPECT_DOUBLE_EQ(reader.f64(), v);
  }
}

// ------------------------------------------------- crafted model streams --
// Streams written field by field in save()'s order. The defaults describe a
// consistent model; each test below breaks one structural invariant in a
// stream that still parses token by token. The loaders must reject it with
// IoError instead of handing predict() a model that indexes out of bounds.

data::Encoder fitted_encoder(data::EncodingMode mode) {
  data::EncoderOptions options;
  options.mode = mode;
  options.add_intercept = mode == data::EncodingMode::kLinearRegression;
  data::Encoder encoder;
  encoder.fit(make_data(40, 9), options);
  return encoder;
}

struct MlpLayerShape {
  std::uint64_t rows;
  std::uint64_t cols;
  bool output;
};

struct MlpStream {
  std::uint64_t n_inputs;
  std::vector<std::uint64_t> hidden;
  std::uint64_t input_flags;
  std::vector<MlpLayerShape> layers;

  void write(serial::Writer& w) const {
    w.tag("mlp");
    w.u64(n_inputs);
    w.u64_vector(hidden);  // count then widths, as Mlp::save writes them
    w.u64(input_flags);
    for (std::uint64_t i = 0; i < input_flags; ++i) w.boolean(true);
    w.u64(layers.size());
    for (const MlpLayerShape& layer : layers) {
      for (const double fill : {0.25, 1.0}) {  // weights, then the mask
        w.u64(layer.rows);
        w.u64(layer.cols);
        for (std::uint64_t i = 0; i < layer.rows * layer.cols; ++i) {
          w.f64(fill);
        }
      }
      w.f64_vector(std::vector<double>(layer.rows, 0.0));
      w.boolean(layer.output);
    }
  }
};

/// One width-3 hidden layer over `n_inputs` inputs.
MlpStream mlp_stream(std::uint64_t n_inputs) {
  return {n_inputs, {3}, n_inputs, {{3, n_inputs, false}, {1, 3, true}}};
}

Mlp load_mlp(const MlpStream& stream) {
  std::stringstream buffer;
  serial::Writer w(buffer);
  stream.write(w);
  serial::Reader r(buffer);
  return Mlp::load(r);
}

struct LrStream {
  data::Encoder encoder =
      fitted_encoder(data::EncodingMode::kLinearRegression);
  std::vector<std::string> names = encoder.feature_names();
  std::vector<double> x_sd = std::vector<double>(encoder.n_outputs(), 1.0);
  std::vector<std::uint64_t> columns = {0, 1};

  std::string str() const {
    std::stringstream out;
    serial::Writer w(out);
    w.tag("dsml-model");
    w.u64(1);
    w.str("linreg");
    w.tag("linreg");
    w.u64(static_cast<std::uint64_t>(LinRegMethod::kEnter));
    w.f64(0.05);
    w.f64(0.10);
    w.u64(0);
    encoder.save(w);
    w.u64(names.size());
    for (const std::string& name : names) w.str(name);
    w.f64_vector(x_sd);
    w.f64(1.0);
    w.u64_vector(columns);
    const std::vector<double> per_column(columns.size(), 0.5);
    for (int i = 0; i < 4; ++i) w.f64_vector(per_column);  // beta, se, t, p
    for (int i = 0; i < 5; ++i) w.f64(0.5);  // sigma2 .. adjusted r2
    w.u64(40);
    w.u64(38);
    return out.str();
  }
};

struct NnStream {
  std::uint64_t method = static_cast<std::uint64_t>(NnMethod::kQuick);
  data::Encoder encoder = fitted_encoder(data::EncodingMode::kNeuralNetwork);
  MlpStream net = mlp_stream(encoder.n_outputs());
  std::uint64_t rows = 4;
  std::uint64_t cols = encoder.n_outputs();
  std::size_t targets = 4;

  std::string str() const {
    std::stringstream out;
    serial::Writer w(out);
    w.tag("dsml-model");
    w.u64(1);
    w.str("neural");
    w.tag("neural");
    w.u64(method);
    w.u64(1);    // seed
    w.u64(0);    // max_epochs
    w.f64(0.9);  // momentum
    w.f64(1.0);  // epoch_scale
    encoder.save(w);
    net.write(w);
    w.u64(rows);
    w.u64(cols);
    for (std::uint64_t i = 0; i < rows * cols; ++i) w.f64(0.5);
    w.f64_vector(std::vector<double>(targets, 0.5));
    return out.str();
  }
};

std::unique_ptr<Regressor> load_string(const std::string& text) {
  std::stringstream buffer(text);
  return load_model(buffer);
}

TEST(CraftedStream, ConsistentStreamsLoadAndPredict) {
  const data::Dataset rows = make_data(5, 10);
  EXPECT_EQ(load_string(LrStream{}.str())->predict(rows).size(), 5u);
  EXPECT_EQ(load_string(NnStream{}.str())->predict(rows).size(), 5u);
  // Every weight 0.25, every bias 0: three sigmoid(0.25) units summed at
  // weight 0.25 each.
  const Mlp net = load_mlp(mlp_stream(2));
  EXPECT_NEAR(net.predict(std::vector<double>{0.5, 0.5}),
              0.75 / (1.0 + std::exp(-0.25)), 1e-12);
}

TEST(CraftedStream, MlpRejectsAFanInThatSkipsThePreviousWidth) {
  // A 1x1 output layer behind a width-3 hidden layer: predict would read
  // three weights from a one-element row.
  MlpStream stream = mlp_stream(2);
  stream.layers[1] = {1, 1, true};
  EXPECT_THROW(load_mlp(stream), IoError);
}

TEST(CraftedStream, MlpRejectsHiddenWidthsThatDifferFromTheLayers) {
  MlpStream stream = mlp_stream(2);
  stream.layers = {{4, 2, false}, {1, 4, true}};  // hidden_sizes says 3
  EXPECT_THROW(load_mlp(stream), IoError);
  stream = mlp_stream(2);
  stream.layers = {{1, 2, true}};  // one hidden width, no hidden layer
  EXPECT_THROW(load_mlp(stream), IoError);
}

TEST(CraftedStream, MlpRejectsAnOutputLayerAnywhereButLastOrWide) {
  MlpStream stream = mlp_stream(2);
  stream.layers[0].output = true;  // a linear hidden layer
  EXPECT_THROW(load_mlp(stream), IoError);
  stream = mlp_stream(2);
  stream.layers[1].output = false;  // no output layer at all
  EXPECT_THROW(load_mlp(stream), IoError);
  stream = mlp_stream(2);
  stream.layers[1] = {2, 3, true};  // two outputs for one response
  EXPECT_THROW(load_mlp(stream), IoError);
}

TEST(CraftedStream, MlpRejectsAnInputFlagPerMissingInput) {
  MlpStream stream = mlp_stream(2);
  stream.input_flags = 3;
  EXPECT_THROW(load_mlp(stream), IoError);
  stream.input_flags = 1;
  EXPECT_THROW(load_mlp(stream), IoError);
}

TEST(CraftedStream, LinearRegressionRejectsAColumnOutsideTheEncoder) {
  LrStream stream;
  stream.columns = {0, 1000000};
  EXPECT_THROW(load_string(stream.str()), IoError);
  stream.columns = {0, stream.encoder.n_outputs()};
  EXPECT_THROW(load_string(stream.str()), IoError);
}

TEST(CraftedStream, LinearRegressionRejectsNamesOrScalesOfAnotherWidth) {
  LrStream stream;
  stream.names.pop_back();
  EXPECT_THROW(load_string(stream.str()), IoError);
  stream = LrStream{};
  stream.x_sd.pop_back();
  EXPECT_THROW(load_string(stream.str()), IoError);
}

TEST(CraftedStream, NeuralRegressorRejectsAnEncoderOfAnotherWidth) {
  // The network and its training sample agree with each other, one input
  // wider than the encoder's output.
  NnStream stream;
  stream.net = mlp_stream(stream.encoder.n_outputs() + 1);
  stream.cols = stream.encoder.n_outputs() + 1;
  EXPECT_THROW(load_string(stream.str()), IoError);
}

TEST(CraftedStream, NeuralRegressorRejectsMismatchedTrainingShapes) {
  NnStream stream;
  stream.cols += 1;  // sample rows wider than the network's inputs
  EXPECT_THROW(load_string(stream.str()), IoError);
  stream = NnStream{};
  stream.targets = stream.rows - 1;  // one target short
  EXPECT_THROW(load_string(stream.str()), IoError);
}

TEST(CraftedStream, NeuralRegressorRejectsAnUnknownMethod) {
  NnStream stream;
  stream.method = static_cast<std::uint64_t>(NnMethod::kSingle) + 1;
  EXPECT_THROW(load_string(stream.str()), IoError);
}

}  // namespace
}  // namespace dsml::ml
