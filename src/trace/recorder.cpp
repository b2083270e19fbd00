#include "trace/recorder.hpp"

#include <algorithm>

#include "trace/stream_sink.hpp"

namespace hs::trace {

std::string_view to_string(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::Bcast: return "bcast";
    case CollectiveOp::Reduce: return "reduce";
  }
  return "unknown";
}

std::string_view to_string(TaskSpanKind kind) {
  switch (kind) {
    case TaskSpanKind::Comm: return "comm";
    case TaskSpanKind::Compute: return "compute";
    case TaskSpanKind::Wait: return "wait";
  }
  return "unknown";
}

int Recorder::rank_count() const {
  int max_rank = -1;
  for (const auto& span : collectives_) max_rank = std::max(max_rank, span.rank);
  for (const auto& span : computes_) max_rank = std::max(max_rank, span.rank);
  for (const auto& mark : steps_) max_rank = std::max(max_rank, mark.rank);
  for (const auto& wire : wires_) {
    max_rank = std::max(max_rank, wire.src);
    max_rank = std::max(max_rank, wire.dst);
  }
  for (const auto& fault : faults_) {
    max_rank = std::max(max_rank, fault.a);
    max_rank = std::max(max_rank, fault.b);
  }
  for (const auto& task : tasks_) max_rank = std::max(max_rank, task.rank);
  return max_rank + 1;
}

void Recorder::spill_now() {
  if (stream_ == nullptr) return;
  spilled_spans_ += stream_->spill(*this);
  // Rank state and histograms survive a spill on purpose: only the span
  // storage is bounded, the stamping context is O(ranks) and stays.
  collectives_.clear();
  computes_.clear();
  steps_.clear();
  wires_.clear();
  sites_.clear();
  faults_.clear();
  tasks_.clear();
  buffered_bytes_ = 0;
}

void Recorder::flush_stream() {
  if (stream_ == nullptr || buffered_bytes_ == 0) return;
  spill_now();
}

}  // namespace hs::trace
