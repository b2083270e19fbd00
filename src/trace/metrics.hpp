// Cross-layer metrics registry: named monotonic counters and point-in-time
// gauges, harvested from whichever subsystems a run touched.
//
// Producers expose a `collect_metrics(MetricsRegistry&)` hook (mpc::Machine,
// exec::ParallelExecutor) or a free collector (collect_engine_metrics below)
// that dumps their always-on counters under a dotted-name convention:
//
//   mpc.collective.bcast.calls     per-collective call counts / payload bytes
//   mpc.bcast_algo.binomial.calls  broadcast algorithm usage
//   mpc.port.send_busy_max_s       port utilization gauges
//   desim.events_processed         engine event loop counters
//   exec.cache_hits                sweep executor cache behavior
//
// Besides counters and gauges the registry holds named log-bucketed
// histograms (hs::Histogram) for quantities whose *distribution* matters at
// scale — transfer latency, exposed task waits, per-level broadcast times,
// engine queue depth — rendered as p50/p90/p99/max. Histograms share a
// fixed bucket layout, so merge() across executor workers is element-wise
// and deterministic regardless of worker completion order.
//
// The registry renders as an aligned table (human) or JSON (tooling); both
// orderings are deterministic (sorted by name).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace hs::desim {
class Engine;
}

namespace hs::trace {

class MetricsRegistry {
 public:
  /// Add `delta` to counter `name` (created at zero on first use).
  void add_counter(std::string_view name, std::uint64_t delta) {
    counters_[std::string(name)] += delta;
  }

  /// Set gauge `name` to `value` (last write wins).
  void set_gauge(std::string_view name, double value) {
    gauges_[std::string(name)] = value;
  }

  /// Mutable reference to histogram `name` (created empty on first use);
  /// producers call registry.histogram("...").add(x) or .merge(h).
  hs::Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const hs::Histogram* find_histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const {
    return counters_.find(std::string(name)) != counters_.end();
  }
  bool has_gauge(std::string_view name) const {
    return gauges_.find(std::string(name)) != gauges_.end();
  }
  bool has_histogram(std::string_view name) const {
    return histograms_.find(std::string(name)) != histograms_.end();
  }

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, hs::Histogram>& histograms() const noexcept {
    return histograms_;
  }
  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  /// Fold `other` into this registry: counters add, gauges take the max
  /// (every current gauge is a peak/ceiling figure), histograms merge
  /// bucket-wise. Commutative on counters and histogram counts, which makes
  /// cross-worker aggregation independent of completion order.
  void merge(const MetricsRegistry& other);

  /// Aligned two-column rendering, counters first, then gauges, then
  /// histograms as "count=N p50=... p90=... p99=... max=...", sorted by
  /// name within each group.
  Table to_table() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, keys
  /// sorted, doubles rendered with enough digits to round-trip. Each
  /// histogram entry carries count/sum/min/max/p50/p90/p99.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, hs::Histogram> histograms_;
};

/// Harvest the engine's event-loop counters: desim.events_processed and
/// desim.heap_peak.
void collect_engine_metrics(const desim::Engine& engine,
                            MetricsRegistry& metrics);

}  // namespace hs::trace
