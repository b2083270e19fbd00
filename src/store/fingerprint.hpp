// Simulator fingerprint: the version salt of the persistent result store.
//
// A cached RunResult is only reusable while the simulator that produced it
// still computes the same physics. The fingerprint condenses "the same
// physics" into one short stable token — a hash of a manually bumped salt,
// the registered kernel set, and the RunResult memory layout — and the
// on-disk store folds it into its namespace (store_root/<fingerprint>/...),
// so a simulator change never *corrupts* old results: it simply makes them
// invisible. Nothing bounds the directory; the stale namespace stays until
// the directory is deleted to start over.
//
// Bump kSimulatorSalt whenever a change alters simulated results without
// changing any cache_key byte (engine scheduling order, collective cost
// formulas, kernel math). Key-visible changes (new SimJob fields) need no
// bump: the keys themselves diverge.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hs::store {

/// The manual component of the fingerprint. Format: "<name>-v<N>".
inline constexpr std::string_view kSimulatorSalt = "hsumma-sim-v2";

/// FNV-1a 64-bit, the repo's stable string hash (also used for content
/// addressing in the result store).
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed = 0);

/// 16 lowercase hex digits identifying the simulator build: hash of
/// kSimulatorSalt, every registered kernel name (in Algorithm order), and
/// sizeof(core::RunResult). Deterministic across runs of the same build.
std::string simulator_fingerprint();

}  // namespace hs::store
