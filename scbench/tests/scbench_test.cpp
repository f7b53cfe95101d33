// The benchmark's own tests: output verification reports a flipped
// reference bit as a failed operation, generation is a pure function of the
// seed, the environment guard and the ladder-step judgement behave as
// documented, and the traced run's artifact is structurally valid.
//
//   python3 scbench/run.py --self-test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "gen.hpp"
#include "open_loop.hpp"
#include "spans.hpp"

namespace {

using scbench::Options;
using scbench::Result;

Result short_run(const std::string& workload, bool corrupt, bool trace = false,
                 const std::string& out_dir = "") {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 1.0;
  o.trace = trace;
  o.out_dir = out_dir;
  o.corrupt_reference = corrupt;
  return scbench::run_workload(o);
}

class FlippedReference : public ::testing::TestWithParam<const char*> {};

TEST_P(FlippedReference, IsReportedAsAFailedOperation) {
  const Result r = short_run(GetParam(), /*corrupt=*/true);
  EXPECT_FALSE(r.correct());
  EXPECT_GE(r.failed, 1u);
  EXPECT_LT(r.failed, r.attempted) << "only the ops using the flipped reference may fail";
  ASSERT_TRUE(r.failures.count("mismatch"));
  EXPECT_EQ(r.failures.at("mismatch"), static_cast<double>(r.failed));
}

INSTANTIATE_TEST_SUITE_P(Workloads, FlippedReference,
                         ::testing::Values("batch-cifar", "serve-digits", "tenants-swap"));

TEST(Verification, IntactReferencesPass) {
  const Result r = short_run("batch-cifar", /*corrupt=*/false);
  EXPECT_TRUE(r.correct());
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.metrics.size(), 10u);
}

TEST(Generation, SameSeedSameInputsOtherSeedOtherInputs) {
  const auto inputs = [](std::uint64_t seed) {
    std::uint64_t h = scbench::digest(scbench::object_images(seed, "x", 4), 0);
    h = scbench::digest(scbench::digit_images(seed, "x", 4), h);
    h = scbench::digest(scbench::cifar_checkpoint(seed, "x"), h);
    h = scbench::digest(scbench::sparsify_conv_weights(scnn::nn::make_mnist_net(),
                                                       scbench::mnist_checkpoint(seed, "x"),
                                                       0.75, seed, "m"),
                        h);
    h = scbench::digest(scbench::poisson_schedule(500, 1.0, 16, seed, "p"), h);
    return scbench::digest(scbench::burst_schedule({}, 1.0, 16, seed, "b"), h);
  };
  EXPECT_EQ(inputs(1), inputs(1));
  EXPECT_NE(inputs(1), inputs(2));
  // Streams are independent: the same seed on another stream differs.
  EXPECT_NE(scbench::digest(scbench::poisson_schedule(500, 1.0, 16, 1, "p"), 0),
            scbench::digest(scbench::poisson_schedule(500, 1.0, 16, 1, "q"), 0));
}

TEST(Generation, SparseMaskZeroesTheRequestedShareOfConvWeights) {
  scnn::nn::Network net = scnn::nn::make_cifar_net();
  std::vector<float> params = net.save_parameters();
  net.load_parameters(scbench::sparsify_conv_weights(scnn::nn::make_cifar_net(), params, 0.75,
                                                     3, "m"));
  double zeros = 0, total = 0;
  for (scnn::nn::Conv2D* c : net.conv_layers())
    for (const float w : c->weight().data()) {
      zeros += w == 0.0f;
      total += 1;
    }
  EXPECT_NEAR(zeros / total, 0.75, 0.02);
}

TEST(Generation, BurstScheduleMixesTenantsAndClasses) {
  const auto s = scbench::burst_schedule({}, 2.0, 16, 5, "b");
  int tenants[2] = {0, 0}, classes[3] = {0, 0, 0};
  for (const auto& a : s) {
    ++tenants[a.tenant];
    ++classes[a.priority];
    EXPECT_GE(a.t_s, 0.0);
    EXPECT_LT(a.t_s, 2.0);
  }
  EXPECT_GT(tenants[0], 0);
  EXPECT_GT(tenants[1], 0);
  for (const int c : classes) EXPECT_GT(c, 0);
}

TEST(EnvGuard, NamesTheSteeringVariable) {
  ASSERT_EQ(scbench::steering_env_var(), "");
  setenv("SCNN_SPARSITY", "dense", 1);
  EXPECT_EQ(scbench::steering_env_var(), "SCNN_SPARSITY");
  unsetenv("SCNN_SPARSITY");
  EXPECT_EQ(scbench::steering_env_var(), "");
}

TEST(Ladder, LateGeneratorMakesAStepInvalidNotPassed) {
  // limit 10 ms, lateness allowed up to 10% of it.
  auto v = scbench::judge_step(4.0, 0.5, 0, false, false, 10.0, 0.1);
  EXPECT_TRUE(v.valid);
  EXPECT_TRUE(v.passed);
  v = scbench::judge_step(4.0, 1.5, 0, false, false, 10.0, 0.1);
  EXPECT_FALSE(v.valid);
  EXPECT_FALSE(v.passed);
  EXPECT_FALSE(scbench::judge_step(12.0, 0.5, 0, false, false, 10.0, 0.1).passed);
  EXPECT_FALSE(scbench::judge_step(4.0, 0.5, 1, false, false, 10.0, 0.1).passed);
  EXPECT_FALSE(scbench::judge_step(4.0, 0.5, 0, true, false, 10.0, 0.1).passed);
  EXPECT_FALSE(scbench::judge_step(4.0, 0.5, 0, false, true, 10.0, 0.1).passed);
}

TEST(Trace, ValidatorRejectsBrokenStructure) {
  EXPECT_NE(scbench::validate_trace("not json"), "");
  const auto ev = [](const char* name, double ts, double dur, int id, int parent, int rid) {
    std::ostringstream s;
    s << "{\"name\": \"" << name << "\", \"ph\": \"X\", \"ts\": " << ts << ", \"dur\": " << dur
      << ", \"pid\": 1, \"tid\": 0, \"args\": {\"id\": " << id << ", \"parent\": " << parent
      << ", \"request_id\": " << rid << "}}";
    return s.str();
  };
  const auto doc = [](std::initializer_list<std::string> events) {
    std::string s = "{\"traceEvents\": [";
    bool first = true;
    for (const auto& e : events) {
      s += (first ? "" : ",") + e;
      first = false;
    }
    return s + "]}";
  };
  EXPECT_EQ(scbench::validate_trace(doc({ev("nn.forward", 0, 100, 1, 0, 0),
                                         ev("nn.layer.conv2d#0", 10, 50, 2, 1, 0)})),
            "");
  EXPECT_NE(scbench::validate_trace(doc({ev("nn.forward", 0, 100, 1, 0, 0),
                                         ev("nn.layer.conv2d#0", 90, 50, 2, 1, 0)})),
            "");
  EXPECT_NE(scbench::validate_trace(doc({ev("nn.layer.relu#1", 0, 5, 2, 0, 0)})), "");
  EXPECT_NE(scbench::validate_trace(doc({ev("serve.submit", 0, 5, 3, 0, 9)})), "");
  EXPECT_EQ(scbench::validate_trace(doc({ev("serve.request", 0, 50, 4, 0, 9),
                                         ev("serve.submit", 0, 5, 3, 4, 9)})),
            "");
}

class TracedRun : public ::testing::TestWithParam<const char*> {};

TEST_P(TracedRun, WritesAValidArtifactAndEveryLayerMetric) {
  const std::string dir = (std::filesystem::current_path() / "scbench_test_out").string();
  std::filesystem::create_directories(dir);
  const Result r = short_run(GetParam(), false, /*trace=*/true, dir);
  EXPECT_TRUE(r.correct()) << "failures: " << r.failures.size();
  ASSERT_FALSE(r.trace_path.empty());
  std::ifstream f(r.trace_path);
  std::stringstream text;
  text << f.rdbuf();
  EXPECT_EQ(scbench::validate_trace(text.str()), "");
  for (const char* name : {"nn.conv1.ms", "nn.unattributed_share", "common.pool.conv_speedup",
                           "serve.queue_ms_p99", "swap.first_run_ms_p50", "trace_overhead_pct",
                           "serve.failed.mismatch"})
    EXPECT_TRUE(r.metrics.count(name)) << name;
  EXPECT_GT(r.metrics.at("nn.conv1.ms").value, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedRun,
                         ::testing::Values("batch-cifar", "serve-digits", "tenants-swap"));

}  // namespace
