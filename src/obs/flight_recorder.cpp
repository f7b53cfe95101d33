#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "obs/report.hpp"

namespace scnn::obs {

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kReject: return "reject";
    case FlightEventKind::kDeadlineExpired: return "deadline_expired";
    case FlightEventKind::kPop: return "pop";
    case FlightEventKind::kFlush: return "flush";
    case FlightEventKind::kBatchStart: return "batch_start";
    case FlightEventKind::kBatchDone: return "batch_done";
    case FlightEventKind::kResolveError: return "resolve_error";
    case FlightEventKind::kWorkerException: return "worker_exception";
    case FlightEventKind::kConfig: return "config";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kSwap: return "swap";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(int shards, int capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()),
      shards_(static_cast<std::size_t>(shards < 1 ? 1 : shards)) {
  for (Shard& s : shards_) s.slots = std::vector<Slot>(static_cast<std::size_t>(capacity_));
}

void FlightRecorder::record(int shard, FlightEventKind kind, int worker,
                            std::uint64_t request_id, std::uint64_t batch_id,
                            std::uint64_t arg0, std::uint64_t arg1,
                            std::string_view detail, int tenant) {
  Shard& sh = shards_[static_cast<std::size_t>(shard) % shards_.size()];
  const std::uint64_t idx = sh.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = sh.slots[static_cast<std::size_t>(idx % static_cast<std::uint64_t>(capacity_))];

  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const auto ts = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());

  // Seqlock write: version goes odd, payload words land relaxed, version
  // goes even. The release on the second bump publishes the payload.
  slot.ver.fetch_add(1, std::memory_order_acq_rel);
  slot.w[0].store(static_cast<std::uint64_t>(kind), std::memory_order_relaxed);
  slot.w[1].store(seq, std::memory_order_relaxed);
  slot.w[2].store(ts, std::memory_order_relaxed);
  slot.w[3].store(static_cast<std::uint64_t>(static_cast<std::int64_t>(worker)),
                  std::memory_order_relaxed);
  slot.w[4].store(request_id, std::memory_order_relaxed);
  slot.w[5].store(batch_id, std::memory_order_relaxed);
  slot.w[6].store(arg0, std::memory_order_relaxed);
  slot.w[7].store(arg1, std::memory_order_relaxed);
  char buf[kDetailWords * 8] = {};
  const std::size_t n = std::min(detail.size(), sizeof buf - 1);  // keep a NUL
  if (n > 0) std::memcpy(buf, detail.data(), n);  // an empty view may be null
  for (int i = 0; i < kDetailWords; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, buf + i * 8, 8);
    slot.w[static_cast<std::size_t>(8 + i)].store(word, std::memory_order_relaxed);
  }
  slot.w[13].store(static_cast<std::uint64_t>(static_cast<std::int64_t>(tenant)),
                   std::memory_order_relaxed);
  slot.ver.fetch_add(1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(shards_.size() * static_cast<std::size_t>(capacity_));
  for (const Shard& sh : shards_) {
    for (const Slot& slot : sh.slots) {
      std::array<std::uint64_t, kWords> w{};
      bool stable = false;
      for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
        const std::uint64_t v0 = slot.ver.load(std::memory_order_acquire);
        if (v0 == 0 || (v0 & 1)) break;  // never written / write in flight
        for (int i = 0; i < kWords; ++i)
          w[static_cast<std::size_t>(i)] =
              slot.w[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        stable = slot.ver.load(std::memory_order_relaxed) == v0;
      }
      if (!stable) continue;  // skip, don't block — the writer owns the slot

      FlightEvent e;
      const std::uint64_t kind = std::min<std::uint64_t>(
          w[0], static_cast<std::uint64_t>(FlightEventKind::kSwap));
      e.kind = static_cast<FlightEventKind>(kind);
      e.seq = w[1];
      e.ts_ns = w[2];
      e.worker = static_cast<int>(static_cast<std::int64_t>(w[3]));
      e.request_id = w[4];
      e.batch_id = w[5];
      e.arg0 = w[6];
      e.arg1 = w[7];
      e.tenant = static_cast<int>(static_cast<std::int64_t>(w[13]));
      char buf[kDetailWords * 8];
      for (int i = 0; i < kDetailWords; ++i)
        std::memcpy(buf + i * 8, &w[static_cast<std::size_t>(8 + i)], 8);
      buf[sizeof buf - 1] = '\0';
      std::memcpy(e.detail, buf, sizeof e.detail);
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  return out;
}

std::string FlightRecorder::to_json(std::string_view reason) const {
  const std::vector<FlightEvent> events = snapshot();

  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr)
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);

  std::string out = "{\n";
  out += "  \"reason\": \"" + detail::json_escape(std::string(reason)) + "\",\n";
  out += "  \"git_sha\": \"" + detail::json_escape(git_sha()) + "\",\n";
  out += "  \"dumped_at\": \"" + std::string(stamp) + "\",\n";
  out += "  \"shards\": " + std::to_string(shards()) + ",\n";
  out += "  \"capacity\": " + std::to_string(capacity_) + ",\n";
  out += "  \"recorded\": " + std::to_string(recorded()) + ",\n";
  out += "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out += "    {\"seq\": " + std::to_string(e.seq) +
           ", \"ts_us\": " + detail::json_number(static_cast<double>(e.ts_ns) / 1e3) +
           ", \"kind\": \"" + flight_event_kind_name(e.kind) +
           "\", \"worker\": " + std::to_string(e.worker) +
           ", \"request_id\": " + std::to_string(e.request_id) +
           ", \"batch_id\": " + std::to_string(e.batch_id) +
           ", \"arg0\": " + std::to_string(e.arg0) +
           ", \"arg1\": " + std::to_string(e.arg1);
    if (e.tenant >= 0) out += ", \"tenant\": " + std::to_string(e.tenant);
    if (e.detail[0] != '\0')
      out += ", \"detail\": \"" + detail::json_escape(e.detail) + "\"";
    out += "}";
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string FlightRecorder::dump(const std::string& path, std::string_view reason) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FlightRecorder: cannot open %s for writing\n", path.c_str());
    return "";
  }
  const std::string body = to_json(reason);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "FlightRecorder: dumped %zu-slot ring to %s (%.*s)\n",
               static_cast<std::size_t>(capacity_) * shards_.size(), path.c_str(),
               static_cast<int>(reason.size()), reason.data());
  return path;
}

}  // namespace scnn::obs
