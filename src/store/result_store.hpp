// Content-addressed on-disk result store: the durable tier of the sweep
// result cache.
//
// The executor's memo (exec::ParallelExecutor) dies with the process; this
// store keys completed core::RunResults by the same canonical
// SimJob::cache_key() — hexfloat specs make keys byte-stable across runs —
// and persists them under a directory any number of processes (benches,
// the tuner) can share:
//
//   <root>/<fingerprint>/objects/<hh>/<hash16>.json   one result per file
//
// where <hash16> is the FNV-1a-64 of the cache key (hex) and <hh> its
// first two digits (fan-out). Each object file embeds the full cache key
// and is verified on load, so a 64-bit hash collision degrades to a miss,
// never to a wrong result. Publishes are atomic: objects are written to a
// temp file in the same directory and renamed into place, so a concurrent
// reader (or a crashed writer) can never observe a torn entry.
//
// The object files are the whole store: there is no index in memory or on
// disk. load() reads the object file, so an open store serves what any
// other instance or process has published since it was opened.
//
// <fingerprint> is the simulator fingerprint (store/fingerprint.hpp):
// results from a simulator whose physics changed live in a different
// namespace and are simply never consulted — invalidation by invisibility.
//
// All methods are thread-safe; one store instance may be shared by every
// executor worker in a process.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/runner.hpp"
#include "trace/metrics.hpp"

namespace hs::store {

struct StoreOptions {
  /// Store root directory; created (with parents) if absent.
  std::string root;
};

/// This instance's monotonic counters plus the namespace's footprint.
struct StoreStats {
  std::uint64_t hits = 0;         // load() served a result
  std::uint64_t misses = 0;       // load() found nothing usable
  std::uint64_t writes = 0;       // save() published an object
  std::uint64_t bad_entries = 0;  // corrupt/mismatched objects dropped
  std::uint64_t bytes = 0;        // object bytes in the namespace
  std::uint64_t entries = 0;      // object files in the namespace
};

class ResultStore {
 public:
  explicit ResultStore(StoreOptions options);
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Look up `cache_key` (must be non-empty) by reading its object file.
  /// Corrupt or key-mismatched objects are removed and counted as
  /// bad_entries + a miss.
  std::optional<core::RunResult> load(const std::string& cache_key);

  /// Publish `result` under `cache_key` (must be non-empty): atomic
  /// write-temp-then-rename. Re-publishing an existing key overwrites it
  /// (results are pure functions of the key, so the bytes are identical
  /// anyway).
  void save(const std::string& cache_key, const core::RunResult& result);

  /// Counters, with `bytes` and `entries` from a scan of the objects
  /// directory.
  StoreStats stats() const;

  /// Dump counters + footprint under the store.* namespace.
  void collect_metrics(trace::MetricsRegistry& metrics) const;

  const std::string& fingerprint() const noexcept { return fingerprint_; }
  /// <root>/<fingerprint>
  const std::string& namespace_dir() const noexcept { return namespace_; }

  /// The 16-hex-digit object name for a cache key.
  static std::string object_name(const std::string& cache_key);

 private:
  std::string object_path(const std::string& name) const;

  // Guards the counters and serializes publishes: two threads of one
  // process would otherwise write the same `.tmp.<pid>` file.
  mutable std::mutex mutex_;
  std::string fingerprint_;
  std::string namespace_;
  StoreStats stats_;  // counters only; stats() scans bytes and entries
};

}  // namespace hs::store
