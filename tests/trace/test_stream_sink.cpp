// Streaming span sink: the chunk file must round-trip every span kind
// bit-for-bit, the recorder's buffered footprint must stay bounded by the
// budget while it spills, a reloaded chunk must export the same Chrome
// trace as the in-memory recorder, and the reader must reject older
// versions, out-of-range enum bytes and every truncated record.
#include "trace/stream_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::trace::CollectiveOp;
using hs::trace::CollectiveSpan;
using hs::trace::ComputeSpan;
using hs::trace::Recorder;
using hs::trace::SiteSpan;
using hs::trace::SpanChunkWriter;
using hs::trace::StepMark;
using hs::trace::TaskSpan;
using hs::trace::TaskSpanKind;
using hs::trace::WireSpan;

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

// One of every record kind, with distinctive field values; every record
// that carries a chain level carries `level`.
void fill(Recorder& recorder, int level = 2) {
  recorder.begin_step(0.25, 3, 7, level);
  CollectiveSpan coll;
  coll.start = 0.5;
  coll.end = 0.75;
  coll.rank = 3;
  coll.op = CollectiveOp::Bcast;
  coll.algo = 1;
  coll.ctx = 4;
  coll.seq = 9;
  coll.root = 2;
  coll.bytes = 4096;
  coll.step = 7;
  coll.level = level;
  coll.closed_form = true;
  recorder.add_collective(coll);
  ComputeSpan comp;
  comp.start = 0.75;
  comp.end = 1.0;
  comp.rank = 3;
  comp.flops = 1.5e9;
  comp.step = 8;
  comp.level = level;
  recorder.add_compute(comp);
  recorder.add_transfer({1.0, 1.25, 3, 5, 512, 4, 11});
  recorder.add_site(
      {1.25, 1.5, CollectiveOp::Reduce, 4, 10, 6, 8192, 16});
  recorder.add_fault({0.0, 2.0, 3, -1, 2.5});
  TaskSpan task;
  task.start = 1.5;
  task.end = 1.75;
  task.rank = 3;
  task.kind = TaskSpanKind::Comm;
  task.step = 7;
  task.level = level;
  task.label = "bcast-a";
  recorder.add_task(task);
}

TEST(StreamSink, RoundTripsEverySpanKind) {
  const std::string path = temp_path("roundtrip.spans");
  for (const int level : {-1, 0, 1, 5}) {
    SCOPED_TRACE("level " + std::to_string(level));
    Recorder recorded;
    SpanChunkWriter writer(path);
    recorded.set_stream(&writer, 1u << 20);  // big budget: one final spill
    fill(recorded, level);
    const Recorder before = recorded;  // snapshot pre-spill contents
    recorded.flush_stream();
    writer.finish();
    EXPECT_EQ(writer.spans_written(), 7u);
    EXPECT_TRUE(recorded.empty());  // spill cleared the buffers

    Recorder loaded;
    EXPECT_EQ(hs::trace::load_span_chunks(path, loaded), 7u);

    ASSERT_EQ(loaded.steps().size(), 1u);
    EXPECT_EQ(loaded.steps()[0].time, 0.25);
    EXPECT_EQ(loaded.steps()[0].rank, 3);
    EXPECT_EQ(loaded.steps()[0].step, 7);
    EXPECT_EQ(loaded.steps()[0].level, level);

    ASSERT_EQ(loaded.collectives().size(), 1u);
    const CollectiveSpan& coll = loaded.collectives()[0];
    const CollectiveSpan& orig = before.collectives()[0];
    EXPECT_EQ(coll.start, orig.start);
    EXPECT_EQ(coll.end, orig.end);
    EXPECT_EQ(coll.rank, orig.rank);
    EXPECT_EQ(coll.op, orig.op);
    EXPECT_EQ(coll.algo, orig.algo);
    EXPECT_EQ(coll.ctx, orig.ctx);
    EXPECT_EQ(coll.seq, orig.seq);
    EXPECT_EQ(coll.root, orig.root);
    EXPECT_EQ(coll.bytes, orig.bytes);
    EXPECT_EQ(coll.step, 7);
    EXPECT_EQ(coll.level, level);
    EXPECT_EQ(coll.closed_form, true);

    ASSERT_EQ(loaded.computes().size(), 1u);
    EXPECT_EQ(loaded.computes()[0].flops, 1.5e9);
    EXPECT_EQ(loaded.computes()[0].step, 8);
    EXPECT_EQ(loaded.computes()[0].level, level);

    ASSERT_EQ(loaded.wires().size(), 1u);
    EXPECT_EQ(loaded.wires()[0].src, 3);
    EXPECT_EQ(loaded.wires()[0].dst, 5);
    EXPECT_EQ(loaded.wires()[0].bytes, 512u);
    EXPECT_EQ(loaded.wires()[0].tag, 11);

    ASSERT_EQ(loaded.sites().size(), 1u);
    EXPECT_EQ(loaded.sites()[0].op, CollectiveOp::Reduce);
    EXPECT_EQ(loaded.sites()[0].wire_bytes, 8192u);
    EXPECT_EQ(loaded.sites()[0].members, 16);
    EXPECT_EQ(loaded.sites()[0].root, 6);

    ASSERT_EQ(loaded.faults().size(), 1u);
    EXPECT_EQ(loaded.faults()[0].a, 3);
    EXPECT_EQ(loaded.faults()[0].b, -1);
    EXPECT_EQ(loaded.faults()[0].factor, 2.5);

    ASSERT_EQ(loaded.tasks().size(), 1u);
    EXPECT_EQ(loaded.tasks()[0].kind, TaskSpanKind::Comm);
    EXPECT_EQ(loaded.tasks()[0].step, 7);
    EXPECT_EQ(loaded.tasks()[0].level, level);
    EXPECT_EQ(std::string(loaded.tasks()[0].label), "bcast-a");
  }
  std::remove(path.c_str());
}

TEST(StreamSink, BudgetBoundsBufferedBytes) {
  const std::string path = temp_path("budget.spans");
  {
    SpanChunkWriter writer(path);
    Recorder recorder;
    const std::size_t budget = 4 * sizeof(WireSpan);
    recorder.set_stream(&writer, budget);
    std::size_t high_water = 0;
    for (int i = 0; i < 1000; ++i) {
      recorder.add_transfer(
          {static_cast<double>(i), static_cast<double>(i) + 0.5, i % 7,
           (i + 1) % 7, 64, 0, i});
      high_water = std::max(high_water, recorder.buffered_bytes());
    }
    // The in-memory estimate never exceeds budget + one span: note_span
    // spills immediately after the store that crossed the line.
    EXPECT_LE(high_water, budget + sizeof(WireSpan));
    EXPECT_GT(recorder.spilled_spans(), 0u);
    recorder.flush_stream();
    writer.finish();
    EXPECT_EQ(writer.spans_written(), 1000u);
    EXPECT_EQ(recorder.buffered_bytes(), 0u);

    // Reload sees all 1000 transfers, in original store order.
    Recorder loaded;
    EXPECT_EQ(hs::trace::load_span_chunks(path, loaded), 1000u);
    ASSERT_EQ(loaded.wires().size(), 1000u);
    for (int i = 0; i < 1000; ++i)
      EXPECT_EQ(loaded.wires()[static_cast<std::size_t>(i)].tag, i);
  }
  std::remove(path.c_str());
}

TEST(StreamSink, NoSpillLeavesNoFile) {
  const std::string path = temp_path("never_spilled.spans");
  {
    SpanChunkWriter writer(path);
    // No spill call: the file must not be created (lazy open).
    writer.finish();
  }
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(StreamSink, ChromeConversionMatchesInMemoryExport) {
  const std::string path = temp_path("chrome.spans");
  {
    Recorder reference;
    fill(reference);

    Recorder streamed;
    SpanChunkWriter writer(path);
    streamed.set_stream(&writer, 1);  // spill on every span
    fill(streamed);
    streamed.flush_stream();
    writer.finish();

    std::ostringstream expected;
    hs::trace::write_chrome_trace(expected, reference, "sim");
    Recorder loaded;
    EXPECT_EQ(hs::trace::load_span_chunks(path, loaded), 7u);
    std::ostringstream converted;
    hs::trace::write_chrome_trace(converted, loaded, "sim");
    EXPECT_EQ(converted.str(), expected.str());
    EXPECT_FALSE(converted.str().empty());
  }
  std::remove(path.c_str());
}

TEST(StreamSink, LoadRejectsBadMagic) {
  const std::string path = temp_path("bad_magic.spans");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTSPANS and some garbage";
  }
  Recorder loaded;
  EXPECT_THROW(hs::trace::load_span_chunks(path, loaded),
               hs::PreconditionError);

  // The previous version of the format is named, not decoded: its records
  // carried bytes this one does not.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "HSSPANS1";
  }
  try {
    hs::trace::load_span_chunks(path, loaded);
    ADD_FAILURE() << "loaded an HSSPANS1 chunk";
  } catch (const hs::PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("HSSPANS1"), std::string::npos) << message;
    EXPECT_NE(message.find("HSSPANS2"), std::string::npos) << message;
    EXPECT_NE(message.find("re-record"), std::string::npos) << message;
  }
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

// The chunk bytes of `recorder`'s spans, written by the real writer.
std::string chunk_bytes(const Recorder& recorder, const std::string& path) {
  {
    SpanChunkWriter writer(path);
    writer.spill(recorder);
  }
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A chunk whose only corruption is one enum byte set past the last
// enumerator must be rejected like an unknown record kind, for each of the
// two enum fields the format stores. The collective op bytes 1 and 3..8
// name no op (they named collectives the library no longer offers): the
// reader loads the two ops that remain and rejects the others with the
// field/offset message, never decoding them as a different op.
TEST(StreamSink, LoadRejectsOutOfRangeEnumBytes) {
  const std::string path = temp_path("bad_enum.spans");
  // Each case fills one recorder with a single span whose enum field holds
  // `value` (restore() stores spans verbatim).
  const std::vector<std::pair<const char*, void (*)(Recorder&, int)>> cases = {
      {"collective op",
       [](Recorder& r, int value) {
         CollectiveSpan span;
         span.op = static_cast<CollectiveOp>(value);
         r.restore(span);
       }},
      {"task span kind",
       [](Recorder& r, int value) {
         TaskSpan span;
         span.label = "t";
         span.kind = static_cast<TaskSpanKind>(value);
         r.restore(span);
       }},
  };
  for (const auto& [field, add] : cases) {
    SCOPED_TRACE(field);
    Recorder valid;
    add(valid, 0);
    Recorder corrupt;
    add(corrupt, 0x7f);
    Recorder loaded;
    const std::string good = chunk_bytes(valid, path);
    EXPECT_EQ(hs::trace::load_span_chunks(path, loaded), 1u);
    const std::string bad = chunk_bytes(corrupt, path);
    EXPECT_THROW(hs::trace::load_span_chunks(path, loaded),
                 hs::PreconditionError);
    // The two chunks differ in exactly the enum byte.
    ASSERT_EQ(good.size(), bad.size());
    int differing = 0;
    for (std::size_t i = 0; i < good.size(); ++i)
      differing += good[i] != bad[i] ? 1 : 0;
    EXPECT_EQ(differing, 1);
  }

  // Every op byte a collective or site span can carry, on both record kinds.
  const std::vector<std::pair<const char*, void (*)(Recorder&, int)>> ops = {
      {"collective span",
       [](Recorder& r, int value) {
         CollectiveSpan span;
         span.op = static_cast<CollectiveOp>(value);
         r.restore(span);
       }},
      {"site span",
       [](Recorder& r, int value) {
         SiteSpan span;
         span.op = static_cast<CollectiveOp>(value);
         r.restore(span);
       }},
  };
  for (const auto& [kind, add] : ops) {
    for (int value = 0; value <= 8; ++value) {
      SCOPED_TRACE(std::string(kind) + " op byte " + std::to_string(value));
      Recorder written;
      add(written, value);
      chunk_bytes(written, path);
      Recorder loaded;
      if (value == static_cast<int>(CollectiveOp::Bcast) ||
          value == static_cast<int>(CollectiveOp::Reduce)) {
        ASSERT_EQ(hs::trace::load_span_chunks(path, loaded), 1u);
        const CollectiveOp op = loaded.sites().empty()
                                    ? loaded.collectives()[0].op
                                    : loaded.sites()[0].op;
        EXPECT_EQ(static_cast<int>(op), value);
        continue;
      }
      try {
        hs::trace::load_span_chunks(path, loaded);
        ADD_FAILURE() << "loaded a span with an op byte that names no op";
      } catch (const hs::PreconditionError& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("out-of-range span chunk collective op " +
                               std::to_string(value) + " at byte "),
                  std::string::npos)
            << message;
      }
    }
  }
  std::remove(path.c_str());
}

// Every proper prefix of a chunk holding one record of each kind: a prefix
// that ends on a record boundary loads exactly the whole records it holds,
// any other one throws, and none reads past its end.
TEST(StreamSink, LoadRejectsEveryTruncatedRecord) {
  const std::string path = temp_path("truncated.spans");
  Recorder full;
  fill(full, 5);
  // The writer emits records kind by kind in this order, so the first j
  // records of the chunk are the first j kinds of `full`.
  const std::vector<void (*)(const Recorder&, Recorder&)> kinds = {
      [](const Recorder& f, Recorder& r) { r.restore(f.collectives()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.computes()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.steps()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.wires()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.sites()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.faults()[0]); },
      [](const Recorder& f, Recorder& r) { r.restore(f.tasks()[0]); },
  };
  // boundary[j] = the byte size of a chunk holding the first j records.
  std::vector<std::size_t> boundary = {hs::trace::kSpanChunkMagic.size()};
  Recorder prefix;
  for (const auto& add : kinds) {
    add(full, prefix);
    boundary.push_back(chunk_bytes(prefix, path).size());
  }
  const std::string bytes = chunk_bytes(full, path);
  ASSERT_EQ(bytes.size(), boundary.back());

  int rejected = 0;
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    SCOPED_TRACE("prefix of " + std::to_string(size) + " bytes");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(size));
    }
    Recorder loaded;
    const auto at = std::find(boundary.begin(), boundary.end(), size);
    if (at == boundary.end()) {
      EXPECT_THROW(hs::trace::load_span_chunks(path, loaded),
                   hs::PreconditionError);
      ++rejected;
      continue;
    }
    const auto records = static_cast<std::uint64_t>(at - boundary.begin());
    ASSERT_EQ(hs::trace::load_span_chunks(path, loaded), records);
    Recorder expected;
    for (std::uint64_t j = 0; j < records; ++j)
      kinds[static_cast<std::size_t>(j)](full, expected);
    std::ostringstream got, want;
    hs::trace::write_chrome_trace(got, loaded);
    hs::trace::write_chrome_trace(want, expected);
    EXPECT_EQ(got.str(), want.str());
  }
  EXPECT_EQ(rejected, static_cast<int>(bytes.size()) - 7);
  std::remove(path.c_str());
}

}  // namespace
