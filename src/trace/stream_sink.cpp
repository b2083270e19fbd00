#include "trace/stream_sink.hpp"

#include <cstring>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/recorder.hpp"

namespace hs::trace {

namespace {

// Record kind tags. Append-only: existing values are part of the on-disk
// format ("HSSPANS1") and must not be renumbered.
enum class RecordKind : std::uint8_t {
  Collective = 0,
  Compute = 1,
  Step = 2,
  Wire = 3,
  Site = 4,
  Fault = 5,
  Task = 6,
};

/// Buffered little-endian field writer: records are serialized field by
/// field (never struct-dumped) so padding and ABI never leak into the file.
class FieldWriter {
 public:
  explicit FieldWriter(std::ofstream& out) : out_(out) {}
  ~FieldWriter() { flush(); }

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw_le(v); }
  void i32(std::int32_t v) { raw_le(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    raw_le(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void flush() {
    if (!buf_.empty()) {
      out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      buf_.clear();
    }
  }

 private:
  template <typename T>
  void raw_le(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    raw(bytes, sizeof(T));
  }
  void raw(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
    if (buf_.size() >= (1u << 16)) flush();
  }

  std::ofstream& out_;
  std::vector<char> buf_;
};

/// Whole-file field reader (chunk files are only ever read back whole).
class FieldReader {
 public:
  FieldReader(std::vector<char> data) : data_(std::move(data)) {}

  bool done() const noexcept { return pos_ >= data_.size(); }
  std::size_t pos() const noexcept { return pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string_view str() {
    const std::uint32_t n = u32();
    return {take(n), n};
  }

 private:
  const char* take(std::size_t n) {
    HS_REQUIRE_MSG(pos_ + n <= data_.size(),
                   "truncated span chunk record at byte " << pos_);
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::uint64_t le(std::size_t n) {
    const char* p = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    return v;
  }

  std::vector<char> data_;
  std::size_t pos_ = 0;
};

/// One enum byte, rejected unless it names an enumerator (its to_string is
/// not "unknown"): a corrupt or foreign chunk must fail loudly, never load
/// a span whose kind renders as "unknown" or as a different kind.
template <typename Enum>
Enum read_enum(FieldReader& r, const char* field, const std::string& path) {
  const std::size_t offset = r.pos();
  const int value = r.u8();
  const auto e = static_cast<Enum>(value);
  HS_REQUIRE_MSG(to_string(e) != "unknown",
                 "out-of-range span chunk " << field << " " << value
                                            << " at byte " << offset
                                            << " of '" << path << "'");
  return e;
}

/// TaskSpan::label is a `const char*` into static storage when recorded
/// live; loaded labels are interned here so the pointer contract survives a
/// round trip. Process-lifetime pool, mutex-guarded for parallel loaders
/// (unordered_set references are stable across inserts).
const char* intern_label(std::string_view label) {
  static std::mutex mutex;
  static std::unordered_set<std::string> pool;
  const std::lock_guard<std::mutex> lock(mutex);
  return pool.emplace(label).first->c_str();
}

void write_record(FieldWriter& w, const CollectiveSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Collective));
  w.f64(s.start);
  w.f64(s.end);
  w.i32(s.rank);
  w.u8(static_cast<std::uint8_t>(s.op));
  w.i32(s.algo);
  w.i32(s.ctx);
  w.u64(s.seq);
  w.i32(s.root);
  w.u64(s.bytes);
  w.i64(s.step);
  w.u8(static_cast<std::uint8_t>(s.phase));
  w.i32(s.level);
  w.u8(s.closed_form ? 1 : 0);
}

void write_record(FieldWriter& w, const ComputeSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Compute));
  w.f64(s.start);
  w.f64(s.end);
  w.i32(s.rank);
  w.f64(s.flops);
  w.i64(s.step);
  w.u8(static_cast<std::uint8_t>(s.phase));
  w.i32(s.level);
}

void write_record(FieldWriter& w, const StepMark& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Step));
  w.f64(s.time);
  w.i32(s.rank);
  w.i64(s.step);
  w.u8(static_cast<std::uint8_t>(s.phase));
}

void write_record(FieldWriter& w, const WireSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Wire));
  w.f64(s.start);
  w.f64(s.end);
  w.i32(s.src);
  w.i32(s.dst);
  w.u64(s.bytes);
  w.i32(s.ctx);
  w.i32(s.tag);
}

void write_record(FieldWriter& w, const SiteSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Site));
  w.f64(s.start);
  w.f64(s.end);
  w.u8(static_cast<std::uint8_t>(s.op));
  w.i32(s.ctx);
  w.u64(s.seq);
  w.i32(s.root);
  w.u64(s.wire_bytes);
  w.i32(s.members);
}

void write_record(FieldWriter& w, const FaultSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Fault));
  w.f64(s.start);
  w.f64(s.end);
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i32(s.a);
  w.i32(s.b);
  w.f64(s.factor);
}

void write_record(FieldWriter& w, const TaskSpan& s) {
  w.u8(static_cast<std::uint8_t>(RecordKind::Task));
  w.f64(s.start);
  w.f64(s.end);
  w.i32(s.rank);
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i64(s.step);
  w.u8(static_cast<std::uint8_t>(s.phase));
  w.i32(s.level);
  w.str(s.label == nullptr ? std::string_view() : std::string_view(s.label));
}

}  // namespace

std::uint64_t SpanChunkWriter::spill(const Recorder& recorder) {
  if (!opened_) {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    HS_REQUIRE_MSG(out_.good(),
                   "cannot open span chunk file '" << path_ << "'");
    out_.write(kSpanChunkMagic.data(),
               static_cast<std::streamsize>(kSpanChunkMagic.size()));
    opened_ = true;
  }
  FieldWriter w(out_);
  std::uint64_t written = 0;
  for (const auto& s : recorder.collectives()) write_record(w, s), ++written;
  for (const auto& s : recorder.computes()) write_record(w, s), ++written;
  for (const auto& s : recorder.steps()) write_record(w, s), ++written;
  for (const auto& s : recorder.wires()) write_record(w, s), ++written;
  for (const auto& s : recorder.sites()) write_record(w, s), ++written;
  for (const auto& s : recorder.faults()) write_record(w, s), ++written;
  for (const auto& s : recorder.tasks()) write_record(w, s), ++written;
  w.flush();
  HS_REQUIRE_MSG(out_.good(), "write to span chunk file '" << path_
                                                           << "' failed");
  spans_ += written;
  return written;
}

void SpanChunkWriter::finish() {
  if (!opened_) return;
  out_.flush();
  out_.close();
  opened_ = false;
}

std::uint64_t load_span_chunks(const std::string& path, Recorder& out) {
  std::ifstream in(path, std::ios::binary);
  HS_REQUIRE_MSG(in.good(), "cannot open span chunk file '" << path << "'");
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  HS_REQUIRE_MSG(data.size() >= kSpanChunkMagic.size() &&
                     std::string_view(data.data(), kSpanChunkMagic.size()) ==
                         kSpanChunkMagic,
                 "'" << path << "' is not a span chunk file (bad magic)");
  FieldReader r(std::move(data));
  for (std::size_t i = 0; i < kSpanChunkMagic.size(); ++i) r.u8();

  std::uint64_t loaded = 0;
  while (!r.done()) {
    const auto kind = static_cast<RecordKind>(r.u8());
    switch (kind) {
      case RecordKind::Collective: {
        CollectiveSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.rank = r.i32();
        s.op = read_enum<CollectiveOp>(r, "collective op", path);
        s.algo = r.i32();
        s.ctx = r.i32();
        s.seq = r.u64();
        s.root = r.i32();
        s.bytes = r.u64();
        s.step = r.i64();
        s.phase = read_enum<Phase>(r, "phase", path);
        s.level = r.i32();
        s.closed_form = r.u8() != 0;
        out.restore(s);
        break;
      }
      case RecordKind::Compute: {
        ComputeSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.rank = r.i32();
        s.flops = r.f64();
        s.step = r.i64();
        s.phase = read_enum<Phase>(r, "phase", path);
        s.level = r.i32();
        out.restore(s);
        break;
      }
      case RecordKind::Step: {
        StepMark s;
        s.time = r.f64();
        s.rank = r.i32();
        s.step = r.i64();
        s.phase = read_enum<Phase>(r, "phase", path);
        out.restore(s);
        break;
      }
      case RecordKind::Wire: {
        WireSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.src = r.i32();
        s.dst = r.i32();
        s.bytes = r.u64();
        s.ctx = r.i32();
        s.tag = r.i32();
        out.restore(s);
        break;
      }
      case RecordKind::Site: {
        SiteSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.op = read_enum<CollectiveOp>(r, "collective op", path);
        s.ctx = r.i32();
        s.seq = r.u64();
        s.root = r.i32();
        s.wire_bytes = r.u64();
        s.members = r.i32();
        out.restore(s);
        break;
      }
      case RecordKind::Fault: {
        FaultSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.kind = read_enum<FaultKind>(r, "fault kind", path);
        s.a = r.i32();
        s.b = r.i32();
        s.factor = r.f64();
        out.restore(s);
        break;
      }
      case RecordKind::Task: {
        TaskSpan s;
        s.start = r.f64();
        s.end = r.f64();
        s.rank = r.i32();
        s.kind = read_enum<TaskSpanKind>(r, "task span kind", path);
        s.step = r.i64();
        s.phase = read_enum<Phase>(r, "phase", path);
        s.level = r.i32();
        s.label = intern_label(r.str());
        out.restore(s);
        break;
      }
      default:
        HS_REQUIRE_MSG(false, "unknown span chunk record kind "
                                  << static_cast<int>(kind) << " at byte "
                                  << (r.pos() - 1) << " of '" << path << "'");
    }
    ++loaded;
  }
  return loaded;
}

std::uint64_t convert_span_chunks_to_chrome(const std::string& chunk_path,
                                            std::ostream& out,
                                            std::string_view label) {
  Recorder recorder;
  const std::uint64_t loaded = load_span_chunks(chunk_path, recorder);
  write_chrome_trace(out, recorder, label);
  return loaded;
}

}  // namespace hs::trace
