#include "store/result_codec.hpp"

#include <cstdlib>

#include "net/model.hpp"

namespace hs::store {

namespace {

JsonValue hex_double(double value) {
  return {net::describe_double(value)};
}

JsonValue dec_u64(std::uint64_t value) {
  return {std::to_string(value)};
}

bool read_double(const JsonValue& object, const std::string& key, double* out,
                 std::string* error) {
  if (!object.has(key) || !object.at(key).is_string()) {
    if (error != nullptr) *error = "missing hexfloat field '" + key + "'";
    return false;
  }
  const std::string& text = object.at(key).string();
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    if (error != nullptr) *error = "malformed hexfloat in '" + key + "'";
    return false;
  }
  *out = parsed;
  return true;
}

bool read_u64(const JsonValue& object, const std::string& key,
              std::uint64_t* out, std::string* error) {
  if (!object.has(key) || !object.at(key).is_string()) {
    if (error != nullptr) *error = "missing counter field '" + key + "'";
    return false;
  }
  const std::string& text = object.at(key).string();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || text.empty()) {
    if (error != nullptr) *error = "malformed counter in '" + key + "'";
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

JsonValue run_result_to_json(const core::RunResult& result) {
  JsonObject timing;
  timing["total_time"] = hex_double(result.timing.total_time);
  timing["max_comm_time"] = hex_double(result.timing.max_comm_time);
  timing["max_comp_time"] = hex_double(result.timing.max_comp_time);
  timing["mean_comm_time"] = hex_double(result.timing.mean_comm_time);
  timing["mean_comp_time"] = hex_double(result.timing.mean_comp_time);
  JsonArray levels;
  levels.reserve(result.timing.max_level_comm_time.size());
  for (const double level : result.timing.max_level_comm_time)
    levels.push_back(hex_double(level));
  timing["max_level_comm_time"] = {std::move(levels)};
  timing["total_flops"] = dec_u64(result.timing.total_flops);

  JsonObject object;
  object["timing"] = {std::move(timing)};
  object["max_error"] = hex_double(result.max_error);
  object["messages"] = dec_u64(result.messages);
  object["wire_bytes"] = dec_u64(result.wire_bytes);
  return {std::move(object)};
}

std::optional<core::RunResult> run_result_from_json(const JsonValue& json,
                                                    std::string* error) {
  if (!json.is_object() || !json.has("timing") ||
      !json.at("timing").is_object()) {
    if (error != nullptr) *error = "result is not an object with 'timing'";
    return std::nullopt;
  }
  core::RunResult result;
  const JsonValue& timing = json.at("timing");
  if (!read_double(timing, "total_time", &result.timing.total_time, error) ||
      !read_double(timing, "max_comm_time", &result.timing.max_comm_time,
                   error) ||
      !read_double(timing, "max_comp_time", &result.timing.max_comp_time,
                   error) ||
      !read_double(timing, "mean_comm_time", &result.timing.mean_comm_time,
                   error) ||
      !read_double(timing, "mean_comp_time", &result.timing.mean_comp_time,
                   error) ||
      !read_u64(timing, "total_flops", &result.timing.total_flops, error))
    return std::nullopt;
  if (!timing.has("max_level_comm_time") ||
      !timing.at("max_level_comm_time").is_array()) {
    if (error != nullptr) *error = "missing max_level_comm_time array";
    return std::nullopt;
  }
  for (const JsonValue& level : timing.at("max_level_comm_time").array()) {
    if (!level.is_string()) {
      if (error != nullptr) *error = "malformed max_level_comm_time entry";
      return std::nullopt;
    }
    char* end = nullptr;
    const std::string& text = level.string();
    const double parsed = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || text.empty()) {
      if (error != nullptr) *error = "malformed max_level_comm_time entry";
      return std::nullopt;
    }
    result.timing.max_level_comm_time.push_back(parsed);
  }
  if (!read_double(json, "max_error", &result.max_error, error) ||
      !read_u64(json, "messages", &result.messages, error) ||
      !read_u64(json, "wire_bytes", &result.wire_bytes, error))
    return std::nullopt;
  return result;
}

}  // namespace hs::store
