// Bit-exact JSON codec for core::RunResult.
//
// The on-disk result store ships RunResults as JSON and promises
// byte-identical downstream output (CSV cells, best-G picks) whether a
// result came from an engine, the in-memory cache, or the disk store
// (possibly written by another process). That only holds if the codec is
// *exact*: every double is rendered as a hexfloat string (strtod parses %a
// output to the identical bit pattern) and every 64-bit counter as a
// decimal string (a JSON number would round through double above 2^53).
#pragma once

#include <optional>
#include <string>

#include "common/json.hpp"
#include "core/runner.hpp"

namespace hs::store {

/// RunResult -> canonical JSON object. write_json of equal results is
/// byte-identical (sorted keys, hexfloat doubles).
JsonValue run_result_to_json(const core::RunResult& result);

/// Inverse of run_result_to_json. nullopt on malformed input; `error`
/// (optional) receives a diagnostic.
std::optional<core::RunResult> run_result_from_json(const JsonValue& json,
                                                    std::string* error = nullptr);

}  // namespace hs::store
