// Model persistence: train a surrogate once, ship it, reload it later.
//
// The file format is a versioned, self-describing text format; both model
// families (LinearRegression and NeuralRegressor) round-trip exactly,
// including their fitted encoders, so a reloaded model produces
// bit-identical predictions.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "ml/model.hpp"

namespace dsml::ml {

/// Serialize a fitted model. Supported concrete types: LinearRegression,
/// NeuralRegressor (SelectModel: save its chosen model). Throws
/// InvalidArgument for unsupported types, StateError if unfitted.
void save_model(const Regressor& model, std::ostream& out);
void save_model(const Regressor& model, const std::string& path);

/// Restore a model saved with save_model. Throws IoError on malformed or
/// version-incompatible input, and on a stream that parses but describes an
/// inconsistent model (layer widths, column indices, sample shapes).
std::unique_ptr<Regressor> load_model(std::istream& in);
std::unique_ptr<Regressor> load_model(const std::string& path);

}  // namespace dsml::ml
