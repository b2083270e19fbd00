// Bounded-memory streaming sink for Recorder spans.
//
// A Recorder with a SpanChunkWriter attached (Recorder::set_stream) spills
// its buffered spans to disk whenever they exceed the RSS budget, so a
// traced run's memory stays O(budget + ranks) no matter how long it runs or
// how many ranks are sampled. The on-disk format is a compact append-only
// record stream ("HSSPANS2"): one byte of record kind, then the span's
// fields in fixed-width little-endian, task labels length-prefixed. Spans,
// step marks and task spans store their chain level as an i32 (-1 = flat).
// No framing or compression — the point is cheap sequential writes from
// inside the simulation loop; the file is only ever read back whole.
//
// load_span_chunks() reconstructs a Recorder (labels are interned into a
// process-lifetime pool so TaskSpan::label stays a stable const char*),
// after which the usual analyses — critical path, Chrome-trace export —
// apply unchanged. Chunk files are run artifacts written beside a trace,
// not a store: the reader decodes only the current version and rejects an
// older one with a message that asks to re-record it.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

namespace hs::trace {

class Recorder;

/// Magic bytes at the start of every chunk file (8 bytes, includes the
/// format version).
inline constexpr std::string_view kSpanChunkMagic = "HSSPANS2";

/// Append-only span chunk file writer. The file is opened lazily on the
/// first spill, so constructing a writer that never spills leaves no file
/// behind. One writer per recorder; single-threaded like the recorder.
class SpanChunkWriter {
 public:
  explicit SpanChunkWriter(std::string path) : path_(std::move(path)) {}
  SpanChunkWriter(const SpanChunkWriter&) = delete;
  SpanChunkWriter& operator=(const SpanChunkWriter&) = delete;
  ~SpanChunkWriter() { finish(); }

  /// Append every span currently buffered in `recorder` to the chunk file;
  /// returns how many were written. Does not clear the recorder — that is
  /// Recorder::spill_now()'s job (it owns the accounting).
  std::uint64_t spill(const Recorder& recorder);

  /// Flush and close the file. Idempotent; the destructor calls it.
  void finish();

  std::uint64_t spans_written() const noexcept { return spans_; }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  bool opened_ = false;
  std::uint64_t spans_ = 0;
};

/// Load a chunk file back into `out` (via Recorder::restore — no
/// sampling). Returns the number of spans loaded. Throws PreconditionError
/// on a bad or older magic, a truncated record or an out-of-range enum
/// byte.
std::uint64_t load_span_chunks(const std::string& path, Recorder& out);

}  // namespace hs::trace
