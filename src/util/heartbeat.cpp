#include "util/heartbeat.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"
#include "util/file.hpp"

namespace npd::heartbeat {

namespace {

constexpr std::string_view kSchema = "npd.heartbeat/1";

/// The document text of `heartbeat`, stamped with the current time.
std::string stamped_text(Heartbeat heartbeat) {
  heartbeat.updated_unix = now_unix_seconds();
  return to_json(heartbeat).dump(2) + "\n";
}

}  // namespace

double now_unix_seconds() {
  // The telemetry layer's sanctioned wall-clock read (this TU is
  // allowlisted by npd_lint's no-wall-clock rule).  Exposed so callers
  // computing heartbeat lag never touch the clock themselves.
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Json to_json(const Heartbeat& heartbeat) {
  Json doc = Json::object();
  doc.set("schema", std::string(kSchema))
      .set("shard", heartbeat.shard_index)
      .set("shards", heartbeat.shard_count)
      .set("jobs_done", heartbeat.jobs_done)
      .set("jobs_total", heartbeat.jobs_total)
      .set("cache_hits", heartbeat.cache_hits)
      .set("cache_misses", heartbeat.cache_misses)
      .set("updated_unix", heartbeat.updated_unix)
      .set("done", heartbeat.done);
  return doc;
}

std::optional<Heartbeat> from_json(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    return std::nullopt;
  }
  Heartbeat heartbeat;
  const auto read_int = [&](const char* key, auto& out) {
    const Json* value = doc.find(key);
    if (value == nullptr || !value->is_number()) {
      return false;
    }
    out = static_cast<std::decay_t<decltype(out)>>(value->as_int());
    return true;
  };
  if (!read_int("shard", heartbeat.shard_index) ||
      !read_int("shards", heartbeat.shard_count) ||
      !read_int("jobs_done", heartbeat.jobs_done) ||
      !read_int("jobs_total", heartbeat.jobs_total) ||
      !read_int("cache_hits", heartbeat.cache_hits) ||
      !read_int("cache_misses", heartbeat.cache_misses)) {
    return std::nullopt;
  }
  const Json* updated = doc.find("updated_unix");
  const Json* done = doc.find("done");
  if (updated == nullptr || !updated->is_number() || done == nullptr) {
    return std::nullopt;
  }
  heartbeat.updated_unix = updated->as_double();
  heartbeat.done = done->as_bool();
  return heartbeat;
}

bool write_heartbeat(const std::filesystem::path& path,
                     Heartbeat heartbeat) {
  return write_file_atomically(path, stamped_text(heartbeat));
}

std::optional<Heartbeat> read_heartbeat(const std::filesystem::path& path) {
  const std::optional<std::string> text = try_read_file(path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  try {
    return from_json(Json::parse(*text));
  } catch (const std::exception&) {
    return std::nullopt;  // malformed telemetry is "no heartbeat"
  }
}

Heartbeat project(Heartbeat identity, const Projection& projection,
                  const metrics::MetricsSnapshot& snapshot) {
  identity.jobs_done = 0;
  for (const std::string& name : projection.jobs_done) {
    identity.jobs_done += snapshot.counter(name);
  }
  identity.cache_hits = snapshot.counter(projection.cache_hits);
  identity.cache_misses = snapshot.counter(projection.cache_misses);
  return identity;
}

PeriodicWriter::PeriodicWriter(std::filesystem::path path,
                               double interval_ms, Render render)
    : path_(std::move(path)),
      interval_ms_(interval_ms),
      render_(std::move(render)) {
  NPD_CHECK_MSG(interval_ms_ > 0.0,
                "PeriodicWriter: need a positive interval");
  write(false);  // announce liveness before the first interval
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(interval_ms_),
        [this] { return stopped_; })) {
      lock.unlock();
      write(false);
      lock.lock();
    }
  });
}

PeriodicWriter::~PeriodicWriter() { stop(); }

void PeriodicWriter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write(true);  // the terminal file
}

void PeriodicWriter::write(bool final) {
  (void)write_file_atomically(path_, render_(final));
}

PeriodicWriter::Render heartbeat_render(Index shard_index, Index shard_count,
                                        std::int64_t jobs_total,
                                        Projection projection) {
  Heartbeat identity;
  identity.shard_index = shard_index;
  identity.shard_count = shard_count;
  identity.jobs_total = jobs_total;
  return [identity, projection = std::move(projection)](bool final) {
    Heartbeat beat = project(identity, projection, metrics::snapshot());
    beat.done = final;
    return stamped_text(beat);
  };
}

}  // namespace npd::heartbeat
