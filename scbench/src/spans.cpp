#include "spans.hpp"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace scbench {

void SpanLog::record(std::uint64_t id, std::string name, Clock::time_point t0,
                     Clock::time_point t1, int row, std::uint64_t parent,
                     std::uint64_t request_id) {
  if (!enabled_) return;
  std::vector<scnn::obs::TraceArg> args{{"id", static_cast<double>(id)},
                                        {"parent", static_cast<double>(parent)}};
  if (request_id != 0) args.push_back({"request_id", static_cast<double>(request_id)});
  tracer_.record(std::move(name), t0, t1, std::move(args), row);
}

bool SpanLog::write(const std::string& path) const {
  return tracer_.write_trace_event_json(path, "scbench");
}

namespace {

struct Span {
  std::string name;
  double ts = 0.0, end = 0.0;
  std::uint64_t parent = 0, request_id = 0;
};

double arg(const scnn::obs::json::Value& ev, std::string_view key) {
  const auto* args = ev.find("args");
  const auto* v = args ? args->find(key) : nullptr;
  return v && v->is_number() ? v->number : 0.0;
}

}  // namespace

std::string validate_trace(std::string_view json) {
  const auto doc = scnn::obs::json::parse(json);
  if (!doc) return "trace does not parse as JSON";
  const auto* events = doc->is_array() ? &*doc : doc->find("traceEvents");
  if (!events || !events->is_array()) return "trace has no traceEvents array";

  std::map<std::uint64_t, Span> spans;
  for (const auto& ev : events->array) {
    const auto* ph = ev.find("ph");
    if (!ph || !ph->is_string() || ph->string != "X") continue;
    const auto* name = ev.find("name");
    const auto* ts = ev.find("ts");
    const auto* dur = ev.find("dur");
    if (!name || !ts || !dur) return "complete event without name/ts/dur";
    const auto id = static_cast<std::uint64_t>(arg(ev, "id"));
    if (id == 0) return "span '" + name->string + "' has no id";
    if (!spans.emplace(id, Span{name->string, ts->number, ts->number + dur->number,
                                static_cast<std::uint64_t>(arg(ev, "parent")),
                                static_cast<std::uint64_t>(arg(ev, "request_id"))})
             .second)
      return "duplicate span id " + std::to_string(id);
  }
  if (spans.empty()) return "trace holds no spans";

  // Timestamps are printed in microseconds with limited digits; allow a
  // rounding slack when checking that a parent encloses its child.
  constexpr double kSlackUs = 2.0;
  std::set<std::uint64_t> submitted, requested;
  for (const auto& [id, s] : spans) {
    if (s.parent != 0) {
      const auto it = spans.find(s.parent);
      if (it == spans.end())
        return "span '" + s.name + "' names missing parent " + std::to_string(s.parent);
      if (s.ts + kSlackUs < it->second.ts || s.end > it->second.end + kSlackUs)
        return "span '" + s.name + "' is not inside its parent '" + it->second.name + "'";
    }
    const bool layer = s.name.rfind("nn.layer.", 0) == 0;
    if (layer && (s.parent == 0 || spans.at(s.parent).name != "nn.forward"))
      return "layer span '" + s.name + "' is not nested in an nn.forward span";
    if (s.name == "serve.submit") submitted.insert(s.request_id);
    if (s.name == "serve.request") requested.insert(s.request_id);
  }
  for (const std::uint64_t rid : submitted)
    if (rid == 0 || !requested.count(rid))
      return "request " + std::to_string(rid) + " has a submit span but no request span";
  return "";
}

}  // namespace scbench
