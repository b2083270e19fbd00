// The RunResult JSON codec must be bit-exact: results served from disk (or
// another process) feed the same CSV cells and best-G comparisons as
// results fresh from an engine.
#include "store/result_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hpp"

namespace {

using hs::core::RunResult;

RunResult awkward_result() {
  RunResult result;
  result.timing.total_time = 1.0 / 3.0;
  result.timing.max_comm_time = 23.170000000000002;
  result.timing.max_comp_time = 5e-324;  // smallest subnormal
  result.timing.mean_comm_time = 0.1 + 0.2;
  result.timing.mean_comp_time = 1.7976931348623157e308;
  result.timing.max_level_comm_time = {0.25, 1e-17, 3.0};
  result.timing.total_flops = (1ull << 62) + 12345;  // above 2^53
  result.max_error = -1.0;
  result.messages = 0xFFFFFFFFFFFFFFFFull;
  result.wire_bytes = (1ull << 53) + 1;  // not representable as double
  return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.timing.total_time, b.timing.total_time);
  EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
  EXPECT_EQ(a.timing.max_comp_time, b.timing.max_comp_time);
  EXPECT_EQ(a.timing.mean_comm_time, b.timing.mean_comm_time);
  EXPECT_EQ(a.timing.mean_comp_time, b.timing.mean_comp_time);
  EXPECT_EQ(a.timing.max_level_comm_time, b.timing.max_level_comm_time);
  EXPECT_EQ(a.timing.total_flops, b.timing.total_flops);
  EXPECT_EQ(a.max_error, b.max_error);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

TEST(ResultCodec, RoundTripsEveryFieldBitExactly) {
  const RunResult original = awkward_result();
  const auto back = hs::store::run_result_from_json(
      hs::store::run_result_to_json(original));
  ASSERT_TRUE(back.has_value());
  expect_bit_identical(original, *back);
}

TEST(ResultCodec, RoundTripsThroughSerializedText) {
  // Full path: value -> JSON text -> value. This is what actually
  // crosses the filesystem.
  const RunResult original = awkward_result();
  const std::string text =
      hs::write_json(hs::store::run_result_to_json(original));
  std::string error;
  const hs::JsonValue parsed = hs::parse_json(text, &error);
  ASSERT_EQ(error, "");
  const auto back = hs::store::run_result_from_json(parsed, &error);
  ASSERT_TRUE(back.has_value()) << error;
  expect_bit_identical(original, *back);
}

TEST(ResultCodec, EncodingIsCanonical) {
  // Equal results -> equal bytes (equal jobs publish byte-identical
  // store objects).
  const std::string a =
      hs::write_json(hs::store::run_result_to_json(awkward_result()));
  const std::string b =
      hs::write_json(hs::store::run_result_to_json(awkward_result()));
  EXPECT_EQ(a, b);
}

TEST(ResultCodec, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(
      hs::store::run_result_from_json(hs::JsonValue{3.0}, &error).has_value());
  EXPECT_NE(error, "");
  // An object missing its timing block.
  hs::JsonObject object;
  object["messages"] = hs::JsonValue{std::string("3")};
  EXPECT_FALSE(hs::store::run_result_from_json(hs::JsonValue{object}, &error)
                   .has_value());
  EXPECT_NE(error, "");
}

}  // namespace
