// Round-trip validation of the Chrome-trace exporter: the emitted document
// must parse as JSON, every complete event must have a non-negative
// duration, and every (pid, tid) track must be properly nested — the
// properties Perfetto's importer relies on.
#include "trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "exec/sim_job.hpp"

namespace {

using hs::JsonArray;
using hs::JsonValue;
using hs::trace::Recorder;
using hs::trace::TraceSession;

// --- helpers --------------------------------------------------------------

// A malformed export fails the test through parse_json's diagnostic.
JsonValue export_and_parse(const Recorder& recorder,
                           const std::string& label = "sim") {
  std::ostringstream out;
  hs::trace::write_chrome_trace(out, recorder, label);
  std::string error;
  JsonValue doc = hs::parse_json(out.str(), &error);
  EXPECT_EQ(error, "");
  return doc;
}

struct Span {
  double ts = 0.0;
  double dur = 0.0;
};

// Perfetto requires every thread track's complete events to nest. Verify by
// replaying each (pid, tid) track in start order against an open-span stack.
void expect_tracks_nest(const JsonValue& doc) {
  std::map<std::pair<double, double>, std::vector<Span>> tracks;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("ph").string() != "X") continue;
    const double dur = event.at("dur").number();
    EXPECT_GE(dur, 0.0) << "negative duration";
    tracks[{event.at("pid").number(), event.at("tid").number()}].push_back(
        {event.at("ts").number(), dur});
  }
  EXPECT_FALSE(tracks.empty());
  for (auto& [key, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts < b.ts || (a.ts == b.ts && a.ts + a.dur > b.ts + b.dur);
    });
    std::vector<double> open_ends;
    for (const Span& span : spans) {
      while (!open_ends.empty() && open_ends.back() <= span.ts)
        open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(span.ts + span.dur, open_ends.back())
            << "span overlaps its enclosing span on pid/tid " << key.first
            << "/" << key.second;
      }
      open_ends.push_back(span.ts + span.dur);
    }
  }
}

Recorder record_run(hs::core::Algorithm algorithm, int groups,
                    hs::mpc::CollectiveMode mode) {
  Recorder recorder;
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.collective_mode = mode;
  job.algorithm = algorithm;
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(256, 64);
  job.recorder = &recorder;
  hs::exec::run_sim_job(job);
  return recorder;
}

// --- tests ----------------------------------------------------------------

TEST(ChromeTrace, EmptyRecorderStillValid) {
  Recorder recorder;
  const JsonValue doc = export_and_parse(recorder);
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  // Only track-naming metadata, no span/counter/instant events.
  for (const JsonValue& event : doc.at("traceEvents").array())
    EXPECT_EQ(event.at("ph").string(), "M");
}

TEST(ChromeTrace, HsummaClosedFormRoundTrips) {
  const Recorder recorder =
      record_run(hs::core::Algorithm::Hsumma, 4,
                 hs::mpc::CollectiveMode::ClosedForm);
  ASSERT_FALSE(recorder.empty());
  const JsonValue doc = export_and_parse(recorder, "hsumma");
  const JsonArray& events = doc.at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  int named_ranks = 0;
  int step_marks = 0;
  int counters = 0;
  for (const JsonValue& event : events) {
    const std::string& ph = event.at("ph").string();
    if (ph == "M" && event.at("name").string() == "thread_name" &&
        event.at("args").at("name").string().rfind("rank ", 0) == 0)
      ++named_ranks;
    if (ph == "i") ++step_marks;
    if (ph == "C") ++counters;
  }
  EXPECT_GE(named_ranks, 16);  // one named track per rank (plus sub-lanes)
  EXPECT_GT(step_marks, 0);
  EXPECT_GT(counters, 0);
  expect_tracks_nest(doc);
}

TEST(ChromeTrace, PointToPointWiresRoundTrip) {
  const Recorder recorder =
      record_run(hs::core::Algorithm::Summa, 1,
                 hs::mpc::CollectiveMode::PointToPoint);
  ASSERT_FALSE(recorder.wires().empty());
  const JsonValue doc = export_and_parse(recorder, "summa");
  bool wire_named = false;
  for (const JsonValue& event : doc.at("traceEvents").array())
    if (event.at("ph").string() == "M" &&
        event.at("name").string() == "process_name" &&
        event.at("args").at("name").string().find("wire") !=
            std::string::npos)
      wire_named = true;
  EXPECT_TRUE(wire_named);
  expect_tracks_nest(doc);
}

TEST(ChromeTrace, OverlappingSpansSplitIntoNestedLanes) {
  // Two overlapping-but-not-nested spans on one rank: exactly the shape the
  // comm/comp overlap fork produces, invalid on one track. The exporter
  // must spread them across lanes; the nesting checker then passes.
  Recorder recorder;
  hs::trace::CollectiveSpan a;
  a.rank = 0;
  a.start = 0.0;
  a.end = 2.0;
  recorder.add_collective(a);
  hs::trace::ComputeSpan b;
  b.rank = 0;
  b.start = 1.0;
  b.end = 3.0;
  recorder.add_compute(b);
  const JsonValue doc = export_and_parse(recorder);
  expect_tracks_nest(doc);
  // The two spans must land on different tids.
  std::vector<double> tids;
  for (const JsonValue& event : doc.at("traceEvents").array())
    if (event.at("ph").string() == "X")
      tids.push_back(event.at("tid").number());
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

TEST(ChromeTrace, TaskRuntimeSpansGetTheirOwnProcessTrack) {
  // An overlapped run records task-runtime spans; the exporter renders them
  // as a third "<label> tasks" process with per-rank lanes that nest.
  Recorder recorder;
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  job.algorithm = hs::core::Algorithm::Summa;
  job.ranks = 16;
  job.problem = hs::core::ProblemSpec::square(256, 64);
  job.lookahead = 2;
  job.recorder = &recorder;
  hs::exec::run_sim_job(job);
  ASSERT_FALSE(recorder.tasks().empty());

  const JsonValue doc = export_and_parse(recorder, "summa");
  bool tasks_named = false;
  double tasks_pid = -1.0;
  for (const JsonValue& event : doc.at("traceEvents").array())
    if (event.at("ph").string() == "M" &&
        event.at("name").string() == "process_name" &&
        event.at("args").at("name").string().find("tasks") !=
            std::string::npos) {
      tasks_named = true;
      tasks_pid = event.at("pid").number();
    }
  ASSERT_TRUE(tasks_named);
  int compute_spans = 0;
  int comm_spans = 0;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("ph").string() != "X" ||
        event.at("pid").number() != tasks_pid)
      continue;
    const std::string& kind = event.at("args").at("kind").string();
    if (kind == "compute") ++compute_spans;
    if (kind == "comm") ++comm_spans;
  }
  EXPECT_GT(compute_spans, 0);
  EXPECT_GT(comm_spans, 0);
  expect_tracks_nest(doc);
}

TEST(ChromeTrace, SpansAndStepMarksPrintTheirLevel) {
  // The exact spelling: every span prints "level":<int> (-1 = flat) after
  // its step, and a step mark's name carries its level.
  Recorder recorder;
  recorder.begin_step(0.0, 0, 7, 0);
  hs::trace::CollectiveSpan coll;
  coll.rank = 0;
  coll.end = 1.0;
  coll.step = 7;
  coll.level = 2;
  recorder.add_collective(coll);
  hs::trace::ComputeSpan comp;
  comp.rank = 0;
  comp.start = 1.0;
  comp.end = 2.0;
  comp.step = 8;
  recorder.add_compute(comp);
  hs::trace::TaskSpan task;
  task.rank = 0;
  task.end = 1.0;
  task.step = 7;
  task.level = 1;
  task.label = "bcast A";
  recorder.add_task(task);
  std::ostringstream out;
  hs::trace::write_chrome_trace(out, recorder);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"step\":7,\"level\":2,\"closed_form\":false"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"step\":8,\"level\":-1}"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"name\":\"step 7 (level 0)\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"kind\":\"comm\",\"step\":7,\"level\":1}"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("phase"), std::string::npos) << doc;
}

TEST(ChromeTrace, ChainBroadcastsShowTheirLevels) {
  // A 2x2x2 chain on an 8x8 grid broadcasts at levels 0..3; every bcast
  // event says which, and none is flat.
  Recorder recorder;
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  job.algorithm = hs::core::Algorithm::Hsumma;
  job.ranks = 64;
  job.hierarchy = hs::core::GroupHierarchy({2, 2, 2});
  job.problem = hs::core::ProblemSpec::square(512, 32);
  job.recorder = &recorder;
  hs::exec::run_sim_job(job);
  const JsonValue doc = export_and_parse(recorder, "chain");
  std::map<int, int> per_level;
  for (const JsonValue& event : doc.at("traceEvents").array())
    if (event.at("ph").string() == "X" && event.at("name").string() == "bcast")
      ++per_level[static_cast<int>(event.at("args").at("level").number())];
  ASSERT_EQ(per_level.size(), 4u);
  for (int level = 0; level < 4; ++level)
    EXPECT_GT(per_level[level], 0) << "level " << level;
}

TEST(ChromeTrace, MultipleSessionsGetDistinctProcesses) {
  const Recorder summa = record_run(hs::core::Algorithm::Summa, 1,
                                    hs::mpc::CollectiveMode::ClosedForm);
  const Recorder hsumma = record_run(hs::core::Algorithm::Hsumma, 4,
                                     hs::mpc::CollectiveMode::ClosedForm);
  const std::vector<TraceSession> sessions{{&summa, "SUMMA"},
                                           {&hsumma, "HSUMMA"}};
  std::ostringstream out;
  hs::trace::write_chrome_trace(out, sessions);
  std::string error;
  const JsonValue doc = hs::parse_json(out.str(), &error);
  ASSERT_EQ(error, "");

  bool saw_summa = false;
  bool saw_hsumma = false;
  std::vector<double> summa_pids;
  std::vector<double> hsumma_pids;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("ph").string() != "M" ||
        event.at("name").string() != "process_name")
      continue;
    const std::string& name = event.at("args").at("name").string();
    if (name.rfind("SUMMA", 0) == 0) {
      saw_summa = true;
      summa_pids.push_back(event.at("pid").number());
    }
    if (name.rfind("HSUMMA", 0) == 0) {
      saw_hsumma = true;
      hsumma_pids.push_back(event.at("pid").number());
    }
  }
  EXPECT_TRUE(saw_summa);
  EXPECT_TRUE(saw_hsumma);
  for (double a : summa_pids)
    for (double b : hsumma_pids) EXPECT_NE(a, b);
  expect_tracks_nest(doc);
}

}  // namespace
