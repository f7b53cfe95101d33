// google-benchmark micro-suite: throughput of the simulators themselves.
// Not a paper figure — this measures the software, so that CNN-scale sweeps
// (Fig. 6) stay tractable and regressions in the hot paths are visible.
// Results are mirrored into BENCH_micro.json (bench_common JsonReport) for
// cross-PR perf tracking.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/bit_parallel.hpp"
#include "core/mvm.hpp"
#include "core/scmac.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/mac_engine.hpp"
#include "sc/conventional.hpp"
#include "sc/lfsr.hpp"
#include "sc/mult_lut.hpp"

namespace {

std::vector<std::int32_t> random_codes(std::size_t count, int n_bits, std::uint64_t seed) {
  scnn::common::SplitMix64 rng(seed);
  const std::int32_t half = 1 << (n_bits - 1);
  std::vector<std::int32_t> v(count);
  for (auto& c : v)
    c = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(2 * half))) - half;
  return v;
}

void BM_MultiplySignedClosedForm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto xs = random_codes(1024, n, 1);
  const auto ws = random_codes(1024, n, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scnn::core::multiply_signed(n, xs[i & 1023], ws[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_MultiplySignedClosedForm)->Arg(5)->Arg(9);

void BM_BitSerialCycleAccurate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto xs = random_codes(256, n, 3);
  const auto ws = random_codes(256, n, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    scnn::core::BitSerialMultiplier m(n, xs[i & 255], ws[i & 255]);
    while (m.step()) {}
    benchmark::DoNotOptimize(m.counter());
    ++i;
  }
}
BENCHMARK(BM_BitSerialCycleAccurate)->Arg(5)->Arg(9);

void BM_BitParallelMultiply(benchmark::State& state) {
  const scnn::core::BitParallelMultiplier bp(9, static_cast<int>(state.range(0)));
  const auto xs = random_codes(256, 9, 5);
  const auto ws = random_codes(256, 9, 6);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.multiply(xs[i & 255], ws[i & 255]).product);
    ++i;
  }
}
BENCHMARK(BM_BitParallelMultiply)->Arg(8)->Arg(16)->Arg(32);

void BM_LutEngineMac(benchmark::State& state) {
  // One conv output at LeNet conv2 scale: d = 25 * 8 = 200 products.
  const auto engine =
      scnn::nn::make_engine({.kind = scnn::nn::EngineKind::kProposed, .n_bits = 8});
  const auto w = random_codes(200, 8, 7);
  const auto x = random_codes(200, 8, 8);
  for (auto _ : state) benchmark::DoNotOptimize(engine->mac(w, x));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_LutEngineMac);

void BM_LutEngineMacRows(benchmark::State& state) {
  // One im2col output-row tile at CIFAR conv2 scale: 28 output columns, each
  // a d = 200 patch, MACed against one cached weight row — the inner kernel
  // of the im2col convolution path.
  constexpr std::size_t kTile = 28, kD = 200;
  const auto engine =
      scnn::nn::make_engine({.kind = scnn::nn::EngineKind::kProposed, .n_bits = 8});
  const auto w = random_codes(kD, 8, 7);
  const auto patches = random_codes(kTile * kD, 8, 8);
  std::vector<std::int64_t> out(kTile);
  scnn::nn::MacStats stats;
  const scnn::nn::WeightCodeView view{std::span<const std::int32_t>(w)};
  for (auto _ : state) {
    engine->mac_rows(view, patches, out, stats);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTile * kD);
}
BENCHMARK(BM_LutEngineMacRows);

void BM_LutEngineMacRowsZeroSkip(benchmark::State& state) {
  // Same tile, but the weight row is state.range(0)% zeros and the engine
  // runs the sparse kernel over a packed view — the zero-skip inner loop.
  constexpr std::size_t kTile = 28, kD = 200;
  const auto engine = scnn::nn::make_engine({.kind = scnn::nn::EngineKind::kProposed,
                                             .n_bits = 8,
                                             .sparsity = scnn::nn::Sparsity::kZeroSkip});
  auto w = random_codes(kD, 8, 7);
  scnn::common::SplitMix64 rng(17);
  for (auto& q : w)
    if (rng.next_double() < static_cast<double>(state.range(0)) / 100.0) q = 0;
  const auto packed = scnn::nn::PackedRowCodes::build(w, 1, kD);
  const auto patches = random_codes(kTile * kD, 8, 8);
  std::vector<std::int64_t> out(kTile);
  scnn::nn::MacStats stats;
  const auto view = scnn::nn::WeightCodeView::packed_row(w, packed, 0);
  for (auto _ : state) {
    engine->mac_rows(view, patches, out, stats);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTile * kD);
}
BENCHMARK(BM_LutEngineMacRowsZeroSkip)->Arg(50)->Arg(90);

// Every compiled-and-runnable mac_rows kernel head to head on the same
// tile — the LUT kernels SCNN_BACKEND chooses between, at micro scale.
// Registered at runtime (see main) because the kernel list depends on the
// host CPU.
void BM_MacRowsKernel(benchmark::State& state,
                      const scnn::nn::backends::Kernel* kernel) {
  constexpr std::size_t kTile = 28, kD = 200;
  const scnn::sc::ProductLut lut = scnn::core::make_proposed_lut(8);
  const auto w = random_codes(kD, 8, 7);
  const auto patches = random_codes(kTile * kD, 8, 8);
  std::vector<std::int64_t> out(kTile);
  constexpr std::int64_t kHi = (std::int64_t{1} << 28) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel->narrow(lut, w, patches, out, -kHi - 1, kHi));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTile * kD);
}

void BM_BiscMvmMacTickLevel(benchmark::State& state) {
  scnn::core::BiscMvm mvm(8, 2, 16);
  const auto xs = random_codes(16, 8, 9);
  for (auto _ : state) {
    mvm.mac(37, xs);
    benchmark::DoNotOptimize(mvm.value(0));
  }
}
BENCHMARK(BM_BiscMvmMacTickLevel);

void BM_ProductLutBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scnn::core::make_proposed_lut(n));
  }
}
BENCHMARK(BM_ProductLutBuild)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LfsrScLutBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scnn::sc::make_lfsr_sc_lut(n));
  }
}
BENCHMARK(BM_LfsrScLutBuild)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LfsrStep(benchmark::State& state) {
  scnn::sc::Lfsr lfsr(16, 1);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.step());
}
BENCHMARK(BM_LfsrStep);

void BM_ConventionalBipolarMultiply(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sx = scnn::sc::make_sng("lfsr", n, 0);
  auto sw = scnn::sc::make_sng("lfsr", n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scnn::sc::bipolar_multiply(n, 33 % (1 << (n - 1)),
                                                        -25 % (1 << (n - 1)), *sx, *sw));
  }
}
BENCHMARK(BM_ConventionalBipolarMultiply)->Arg(8);

/// Console output as usual, plus a copy of every run for BENCH_micro.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) runs.push_back(r);
    ConsoleReporter::ReportRuns(report);
  }
  std::vector<Run> runs;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const scnn::nn::backends::Kernel* kernel :
       scnn::nn::backends::available_kernels())
    benchmark::RegisterBenchmark(
        (std::string("BM_MacRowsKernel/") + kernel->name).c_str(),
        BM_MacRowsKernel, kernel);
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  scnn::bench::JsonReport report = scnn::bench::stamped_report("micro");
  for (const auto& run : reporter.runs) {
    if (run.error_occurred) continue;
    report.add_metric(run.benchmark_name(), run.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(run.time_unit));
    const auto items = run.counters.find("items_per_second");
    if (items != run.counters.end())
      report.add_metric(run.benchmark_name() + "/items_per_second",
                        items->second.value, "items/s");
  }
  report.write_file();
  benchmark::Shutdown();
  return 0;
}
