// Content-addressed on-disk result store: the durable tier of the sweep
// result cache.
//
// The in-memory cache (exec::ParallelExecutor) dies with the process; this
// store keys completed core::RunResults by the same canonical
// SimJob::cache_key() — hexfloat specs make keys byte-stable across runs —
// and persists them under a directory any number of processes (benches,
// the tuner) can share:
//
//   <root>/<fingerprint>/objects/<hh>/<hash16>.json   one result per file
//   <root>/<fingerprint>/index.json                   LRU clock index
//
// where <hash16> is the FNV-1a-64 of the cache key (hex) and <hh> its
// first two digits (fan-out). Each object file embeds the full cache key
// and is verified on load, so a 64-bit hash collision degrades to a miss,
// never to a wrong result. Publishes are atomic: objects are written to a
// temp file in the same directory and renamed into place, so a concurrent
// reader (or a crashed writer) can never observe a torn entry.
//
// <fingerprint> is the simulator fingerprint (store/fingerprint.hpp):
// results from a simulator whose physics changed live in a different
// namespace and are simply never consulted — invalidation by invisibility.
//
// The index holds a monotonic access clock per entry; when a byte budget
// is set, publishing evicts least-recently-used objects (ties broken by
// hash for determinism) until the namespace fits. The index is advisory:
// if it is missing or stale the store rebuilds it by scanning the objects
// directory, so losing an index race between two processes costs accuracy
// of the LRU order, never correctness.
//
// All methods are thread-safe; one store instance may be shared by every
// executor worker in a process.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <map>

#include "core/runner.hpp"
#include "trace/metrics.hpp"

namespace hs::store {

struct StoreOptions {
  /// Store root directory; created (with parents) if absent.
  std::string root;
  /// Byte budget for this namespace's object files; 0 = unbounded. The
  /// budget is enforced on publish: save() evicts LRU entries until the
  /// namespace (including the new entry) fits.
  std::uint64_t byte_budget = 0;
  /// Namespace override; empty selects simulator_fingerprint(). Tests use
  /// explicit fingerprints to model simulator-version changes.
  std::string fingerprint;
};

/// Monotonic store counters plus the current footprint.
struct StoreStats {
  std::uint64_t hits = 0;         // load() served a result
  std::uint64_t misses = 0;       // load() found nothing usable
  std::uint64_t writes = 0;       // save() published an object
  std::uint64_t evictions = 0;    // objects removed by the byte budget
  std::uint64_t bad_entries = 0;  // corrupt/mismatched objects dropped
  std::uint64_t bytes = 0;        // current namespace footprint
  std::uint64_t entries = 0;      // current object count
};

class ResultStore {
 public:
  explicit ResultStore(StoreOptions options);
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  /// Flushes the LRU index.
  ~ResultStore();

  /// Look up `cache_key` (must be non-empty). A hit bumps the entry's LRU
  /// clock; corrupt or key-mismatched objects are dropped and counted as
  /// bad_entries + a miss.
  std::optional<core::RunResult> load(const std::string& cache_key);

  /// Publish `result` under `cache_key` (must be non-empty): atomic
  /// write-temp-then-rename, then LRU eviction down to the byte budget.
  /// Re-publishing an existing key overwrites it (results are pure
  /// functions of the key, so the bytes are identical anyway).
  void save(const std::string& cache_key, const core::RunResult& result);

  StoreStats stats() const;

  /// Dump counters + footprint under the store.* namespace.
  void collect_metrics(trace::MetricsRegistry& metrics) const;

  /// Persist the LRU index now (also done on destruction and after every
  /// save). Cheap: one small JSON file, atomically renamed.
  void flush();

  const std::string& fingerprint() const noexcept { return fingerprint_; }
  /// <root>/<fingerprint>
  const std::string& namespace_dir() const noexcept { return namespace_; }

  /// The 16-hex-digit object name for a cache key.
  static std::string object_name(const std::string& cache_key);

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;
  };

  std::string object_path(const std::string& name) const;
  void load_index_locked();
  void write_index_locked();
  void evict_to_budget_locked();
  void drop_entry_locked(const std::string& name, bool count_eviction);

  mutable std::mutex mutex_;
  std::string namespace_;
  std::string fingerprint_;
  std::uint64_t byte_budget_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t bytes_total_ = 0;
  std::map<std::string, Entry> entries_;  // object name -> entry
  StoreStats stats_;
};

}  // namespace hs::store
