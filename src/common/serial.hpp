// Tiny text serialization layer used to persist trained models.
//
// Format: whitespace-separated tokens. Doubles are written as hexfloats so
// values round-trip exactly; strings are length-prefixed so arbitrary
// content (spaces, commas) survives. Every logical section starts with a
// named tag, which doubles as a format check when loading.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dsml::serial {

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void tag(const std::string& name);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(const std::string& s);

  void f64_vector(const std::vector<double>& v);
  void u64_vector(const std::vector<std::uint64_t>& v);

 private:
  std::ostream& out_;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  /// Reads a tag and requires it to equal `expected` (throws IoError).
  void expect_tag(const std::string& expected);
  /// Reads a tag and returns it.
  std::string tag();

  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();

  std::vector<double> f64_vector();
  std::vector<std::uint64_t> u64_vector();

  /// Requires that only whitespace remains; throws IoError naming the byte
  /// offset of the first trailing token otherwise. Call after the last field
  /// so a concatenated/corrupted artifact cannot pass as a clean load.
  void expect_end();

  /// Structural check for loaders: throws IoError("<what> before byte N")
  /// unless `ok`. A stream can parse token by token and still describe a
  /// model that would index out of bounds at its first predict.
  void require(bool ok, const char* what) const;

  /// Current byte offset in the stream (best effort: -1 if the stream does
  /// not support tellg). Reported in every truncation/garbage IoError so a
  /// corrupt artifact can be inspected with `xxd -s <offset>`.
  std::int64_t offset() const;

 private:
  std::string token();
  [[noreturn]] void fail_truncated() const;

  std::istream& in_;
};

}  // namespace dsml::serial
