// scbench — the repository benchmark binary.
//
//   scbench --workload <batch-cifar|serve-digits|tenants-swap> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>] [--source-id <id>]
//
// Prints, as the last line of stdout, one JSON object with exactly the keys
// correct, attempted, failed and metrics. With --out-dir it also writes the
// result together with its fingerprint (source id, CPU, thread count, each
// tenant's resolved kernel and engine_config, the workload descriptor and
// an input digest) so two results can be checked as like-for-like, plus the
// chrome-trace artifact of a traced run. run.py builds and drives it.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/cpu_features.hpp"
#include "obs/report.hpp"

namespace {

using scnn::obs::detail::json_escape;
using scnn::obs::detail::json_number;

std::string q(const std::string& s) { return '"' + json_escape(s) + '"'; }

std::string result_json(const scbench::Result& r) {
  std::string out = "{\"correct\": " + std::string(r.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + q(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + q(m.unit) + "}";
    first = false;
  }
  return out + "}}";
}

std::string fingerprint_json(const scbench::Options& o, const scbench::Result& r,
                             const std::string& source_id) {
  std::string out = "{\"source_id\": " + q(source_id) + ", \"git_sha\": " +
                    q(scnn::obs::git_sha()) +
                    ", \"hw_threads\": " + std::to_string(scbench::hw_threads()) +
                    ", \"cpu_flags\": " + q(scnn::common::cpu_features_summary()) +
                    ", \"workload\": " + q(o.workload) + ", \"seed\": " + std::to_string(o.seed) +
                    ", \"seconds\": " + json_number(o.seconds) +
                    ", \"trace\": " + (o.trace ? "true" : "false") +
                    ", \"input_digest\": " + q(std::to_string(r.input_digest)) +
                    ", \"descriptor\": {";
  for (std::size_t i = 0; i < r.descriptor.size(); ++i)
    out += (i ? ", " : "") + q(r.descriptor[i].first) + ": " + q(r.descriptor[i].second);
  out += "}, \"tenants\": {";
  for (std::size_t i = 0; i < r.tenants.size(); ++i)
    out += (i ? ", " : "") + q(r.tenants[i].first) + ": " + r.tenants[i].second;
  out += "}, \"failures\": {";
  bool first = true;
  for (const auto& [cause, n] : r.failures) {
    out += (first ? "" : ", ") + q(cause) + ": " + json_number(n);
    first = false;
  }
  out += "}";
  if (!r.trace_path.empty()) out += ", \"trace_artifact\": " + q(r.trace_path);
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "scbench: %s\nusage: scbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--source-id <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  scbench::Options o;
  std::string source_id = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else if (a == "--source-id") {
        source_id = value();
      } else {
        throw std::invalid_argument("unknown argument '" + a + "'");
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");
  if (!(o.seconds >= 1.0 && o.seconds <= 120.0)) return usage("--seconds must be in [1, 120]");
  if (const std::string env = scbench::steering_env_var(); !env.empty()) {
    std::fprintf(stderr,
                 "scbench: refusing to run with %s set: the benchmark measures the "
                 "library's defaults\n",
                 env.c_str());
    return 3;
  }

  scbench::Result r;
  try {
    r = scbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scbench: %s\n", e.what());
    return 1;
  }
  const std::string result = result_json(r);
  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/result-" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") + ".json";
    std::ofstream f(path);
    f << "{\"fingerprint\": " << fingerprint_json(o, r, source_id) << ", \"result\": " << result
      << "}\n";
    if (!f) std::fprintf(stderr, "scbench: could not write %s\n", path.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
