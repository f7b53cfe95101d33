// Property/fuzz coverage for the serving-plane CLI surface:
// priority_from_string must never crash on arbitrary text (the only
// permitted failure is std::invalid_argument naming the offending value),
// every enumerator round-trips through to_string, and Args streams carrying
// --queue-cap= / --priority= flags survive parse → to_tokens → parse
// unchanged. Fixed-seed mt19937_64 so failures reproduce exactly, mirroring
// cli_args_fuzz_test.
#include "serve/server.hpp"
#include "tools/cli_args.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace scnn::serve {
namespace {

constexpr std::uint64_t kSeed = 0x5c1717u;  // deterministic: reruns == CI

/// Arbitrary text biased toward near-misses of the real enumerator names so
/// both the accept and reject paths fire.
std::string random_text(std::mt19937_64& rng) {
  static const std::vector<std::string> near{
      "high", "normal", "batch",  "mixed", "64", "-1",
      "HIGH", "norm",   "batchy", "",      "8x", "high "};
  static const std::string alphabet = "abcdefghijklmnopqrstuvwxyz-_ =";
  std::uniform_int_distribution<int> shape(0, 3);
  if (shape(rng) != 0) {
    std::uniform_int_distribution<std::size_t> pick(0, near.size() - 1);
    return near[pick(rng)];
  }
  std::uniform_int_distribution<int> len(0, 10);
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::string s;
  const int n = len(rng);
  for (int i = 0; i < n; ++i) s += alphabet[pick(rng)];
  return s;
}

TEST(ServeArgsFuzz, PriorityFromStringNeverCrashesAndNamesOffenders) {
  std::mt19937_64 rng(kSeed);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string text = random_text(rng);
    try {
      const Priority p = priority_from_string(text);
      ++accepted;
      // Whatever parses must round-trip to the exact same spelling.
      ASSERT_EQ(to_string(p), text);
    } catch (const std::invalid_argument& e) {
      ++rejected;  // the only failure mode the parser permits
      // The message must quote the rejected value so CLI errors are
      // actionable ("--priority = \"xyz\" (expected ...)").
      ASSERT_NE(std::string(e.what()).find("\"" + text + "\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_GT(accepted, 1000) << "generator produced too few valid inputs";
  EXPECT_GT(rejected, 1000) << "generator produced too few invalid inputs";
}

TEST(ServeArgsFuzz, EveryEnumeratorRoundTrips) {
  for (const Priority p : {Priority::kHigh, Priority::kNormal, Priority::kBatch})
    EXPECT_EQ(priority_from_string(to_string(p)), p) << to_string(p);
}

/// Args streams carrying the serve flags: parse → to_tokens → parse is the
/// identity, and the values land in get() exactly as written — including
/// invalid spellings, which the Args layer passes through verbatim for
/// cmd_serve to reject with a flag-prefixed message.
TEST(ServeArgsFuzz, QueueAndPriorityFlagsSurviveArgsRoundTrip) {
  std::mt19937_64 rng(kSeed ^ 0xfeedu);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::string queue_cap = random_text(rng);
    const std::string priority = random_text(rng);
    std::vector<std::string> tokens{"serve", "--queue-cap=" + queue_cap,
                                    "--priority=" + priority, "--requests=8"};
    cli::Args args = cli::Args::parse(tokens);
    ASSERT_EQ(args.get("queue-cap", ""), queue_cap);
    ASSERT_EQ(args.get("priority", ""), priority);
    const cli::Args again = cli::Args::parse(args.to_tokens());
    ASSERT_EQ(again, args);
    ASSERT_EQ(again.get("queue-cap", ""), queue_cap);
    ASSERT_EQ(again.get("priority", ""), priority);

    // The downstream contract cmd_serve relies on: each value either parses
    // or throws its documented error — nothing else.
    try {
      (void)again.get_int("queue-cap", 64);
    } catch (const cli::ArgError&) {
    }
    try {
      (void)priority_from_string(again.get("priority", "normal"));
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace
}  // namespace scnn::serve
