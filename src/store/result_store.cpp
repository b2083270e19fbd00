#include "store/result_store.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "store/fingerprint.hpp"
#include "store/result_codec.hpp"

namespace fs = std::filesystem;

namespace hs::store {

namespace {

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return buffer.str();
}

/// Atomic publish: write next to the target, then rename over it. rename(2)
/// within one directory is atomic on POSIX, so readers see either the old
/// object or the complete new one, never a prefix.
bool write_file_atomic(const fs::path& path, const std::string& bytes) {
  // The pid keeps two processes publishing the same object from clobbering
  // each other's temp file; the final rename still lets last-write win.
  const fs::path temp =
      path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ignored;
      fs::remove(temp, ignored);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(temp, ignored);
    return false;
  }
  return true;
}

}  // namespace

ResultStore::ResultStore(StoreOptions options)
    : fingerprint_(simulator_fingerprint()) {
  HS_REQUIRE_MSG(!options.root.empty(), "ResultStore needs a root directory");
  namespace_ = (fs::path(options.root) / fingerprint_).string();
  std::error_code ec;
  fs::create_directories(fs::path(namespace_) / "objects", ec);
  HS_REQUIRE_MSG(!ec, "cannot create store directory " << namespace_ << ": "
                                                       << ec.message());
}

std::string ResultStore::object_name(const std::string& cache_key) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(fnv1a64(cache_key)));
  return buffer;
}

std::string ResultStore::object_path(const std::string& name) const {
  return (fs::path(namespace_) / "objects" / name.substr(0, 2) /
          (name + ".json"))
      .string();
}

std::optional<core::RunResult> ResultStore::load(const std::string& cache_key) {
  HS_REQUIRE_MSG(!cache_key.empty(), "ResultStore::load of an empty key");
  const std::string path = object_path(object_name(cache_key));
  std::lock_guard lock(mutex_);
  const auto text = read_file(path);
  if (!text.has_value()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const JsonValue object = parse_json(*text);
  std::optional<core::RunResult> result;
  if (object.is_object() && object.has("key") &&
      object.at("key").is_string() &&
      object.at("key").string() == cache_key && object.has("result"))
    result = run_result_from_json(object.at("result"));
  if (!result.has_value()) {
    // Corrupt bytes or a 64-bit hash collision with a different key:
    // either way the object is useless for this key — drop it so the next
    // save can republish cleanly.
    std::error_code ignored;
    fs::remove(path, ignored);
    ++stats_.bad_entries;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return result;
}

void ResultStore::save(const std::string& cache_key,
                       const core::RunResult& result) {
  HS_REQUIRE_MSG(!cache_key.empty(), "ResultStore::save of an empty key");
  const std::string path = object_path(object_name(cache_key));
  JsonObject object;
  object["key"] = {cache_key};
  object["fingerprint"] = {fingerprint_};
  object["result"] = run_result_to_json(result);
  const std::string bytes = write_json(JsonValue{std::move(object)});

  std::lock_guard lock(mutex_);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec || !write_file_atomic(path, bytes)) return;  // disk full etc.: the
                                                      // store is a cache,
                                                      // degrade silently
  ++stats_.writes;
}

StoreStats ResultStore::stats() const {
  StoreStats snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = stats_;
  }
  std::error_code ec;
  for (const auto& shard :
       fs::directory_iterator(fs::path(namespace_) / "objects", ec)) {
    if (!shard.is_directory(ec)) continue;
    for (const auto& object : fs::directory_iterator(shard.path(), ec)) {
      // Skips the temp files of publishes in progress (or crashed).
      if (object.path().extension() != ".json") continue;
      const std::uint64_t size = object.file_size(ec);
      if (ec) continue;  // removed since the directory was listed
      snapshot.bytes += size;
      ++snapshot.entries;
    }
  }
  return snapshot;
}

void ResultStore::collect_metrics(trace::MetricsRegistry& metrics) const {
  const StoreStats snapshot = stats();
  metrics.add_counter("store.hits", snapshot.hits);
  metrics.add_counter("store.misses", snapshot.misses);
  metrics.add_counter("store.writes", snapshot.writes);
  metrics.add_counter("store.bad_entries", snapshot.bad_entries);
  metrics.set_gauge("store.bytes", static_cast<double>(snapshot.bytes));
  metrics.set_gauge("store.entries", static_cast<double>(snapshot.entries));
}

}  // namespace hs::store
