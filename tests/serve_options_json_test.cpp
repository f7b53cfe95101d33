// ServerOptions / TenantOptions JSON round-tripping — the config-file face
// of a multi-tenant deployment (`scnn_cli serve --tenants=FILE`). Mirrors
// nn_engine_config_test: to_json -> from_json is the identity, and every
// parse / validation error names the offending token or field.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace scnn::serve {
namespace {

using scnn::nn::EngineConfig;
using scnn::nn::EngineKind;

template <typename T>
void expect_parse_error(const char* json, const char* needle) {
  try {
    (void)T::from_json(json);
    FAIL() << "expected invalid_argument mentioning \"" << needle
           << "\" for: " << json;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(TenantOptionsJson, DefaultRoundTripsExactly) {
  const TenantOptions opts;
  const TenantOptions round = TenantOptions::from_json(opts.to_json());
  EXPECT_EQ(round.to_json(), opts.to_json());
  EXPECT_EQ(round.name, "default");
  EXPECT_EQ(round.checkpoint, "");
  EXPECT_EQ(round.shards, 0);
  EXPECT_FALSE(round.engine.has_value());
}

TEST(TenantOptionsJson, PopulatedRoundTripsExactly) {
  TenantOptions opts;
  opts.name = "vision-v2";
  opts.checkpoint = "ckpt/vision_v2.scnn";
  opts.shards = 3;
  opts.engine = EngineConfig{.kind = EngineKind::kProposed, .n_bits = 10};
  const TenantOptions round = TenantOptions::from_json(opts.to_json());
  EXPECT_EQ(round.to_json(), opts.to_json());
  EXPECT_EQ(round.name, "vision-v2");
  EXPECT_EQ(round.checkpoint, "ckpt/vision_v2.scnn");
  EXPECT_EQ(round.shards, 3);
  ASSERT_TRUE(round.engine.has_value());
  EXPECT_EQ(round.engine->n_bits, 10);
  EXPECT_EQ(round.engine->kind, EngineKind::kProposed);
}

TEST(TenantOptionsJson, ParseErrorsNameTheOffendingToken) {
  expect_parse_error<TenantOptions>("{\"bogus\":1}", "unknown key \"bogus\"");
  expect_parse_error<TenantOptions>("{\"name\":\"a\"", "unexpected end");
  expect_parse_error<TenantOptions>("{\"shards\":\"x\"}", "expected an integer");
  expect_parse_error<TenantOptions>("{\"name\":\"a\"}trail", "trailing");
  // Nested engine errors surface with EngineConfig's own token naming.
  expect_parse_error<TenantOptions>("{\"engine\":{\"nope\":1}}", "nope");
}

TEST(TenantOptionsJson, ValidateNamesTheOffendingField) {
  const auto expect_invalid = [](TenantOptions opts, const char* needle) {
    try {
      opts.validate();
      FAIL() << "expected invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  TenantOptions opts;
  opts.name = "";
  expect_invalid(opts, "name must not be empty");
  opts = TenantOptions{};
  opts.name = "has space";
  expect_invalid(opts, "has space");
  opts = TenantOptions{};
  opts.name = std::string(40, 'a');
  expect_invalid(opts, "longer than 32");
  opts = TenantOptions{};
  opts.name = "batch";  // collides with the serve.batch.* metric namespace
  expect_invalid(opts, "reserved");
  opts = TenantOptions{};
  opts.shards = -1;
  expect_invalid(opts, "shards = -1");
  opts = TenantOptions{};
  opts.shards = TenantOptions::kMaxShards + 1;
  expect_invalid(opts, "shards = 257");
  opts = TenantOptions{};
  opts.engine = EngineConfig{.n_bits = 99};
  expect_invalid(opts, "n_bits = 99");
}

TEST(ServerOptionsJson, DefaultRoundTripsExactly) {
  const ServerOptions opts;
  const ServerOptions round = ServerOptions::from_json(opts.to_json());
  EXPECT_EQ(round.to_json(), opts.to_json());
  EXPECT_EQ(round.workers, opts.workers);
  EXPECT_TRUE(round.tenants.empty());
  EXPECT_FALSE(round.engine.has_value());
}

TEST(ServerOptionsJson, MultiTenantDeploymentRoundTripsExactly) {
  ServerOptions opts;
  opts.workers = 4;
  opts.session_threads = 2;
  opts.max_batch = 16;
  opts.max_delay_us = 250;
  opts.queue_capacity = 512;
  opts.default_deadline_us = 50'000;
  opts.start_paused = true;
  opts.trace = true;
  opts.flight_recorder = false;
  opts.flight_capacity = 1024;
  opts.reject_burst = 8;
  opts.flight_dump_prefix = "deploy_flight";
  opts.engine = EngineConfig{.kind = EngineKind::kProposed, .n_bits = 8};
  TenantOptions alpha;
  alpha.name = "alpha";
  alpha.checkpoint = "ckpt/alpha.scnn";
  TenantOptions beta;
  beta.name = "beta";
  beta.shards = 2;
  beta.engine = EngineConfig{.kind = EngineKind::kFixed, .n_bits = 12};
  opts.tenants = {alpha, beta};
  opts.validate();

  const ServerOptions round = ServerOptions::from_json(opts.to_json());
  EXPECT_EQ(round.to_json(), opts.to_json());
  EXPECT_EQ(round.workers, 4);
  EXPECT_EQ(round.flight_dump_prefix, "deploy_flight");
  ASSERT_TRUE(round.engine.has_value());
  EXPECT_EQ(round.engine->n_bits, 8);
  ASSERT_EQ(round.tenants.size(), 2u);
  EXPECT_EQ(round.tenants[0].name, "alpha");
  EXPECT_EQ(round.tenants[0].checkpoint, "ckpt/alpha.scnn");
  EXPECT_EQ(round.tenants[1].name, "beta");
  EXPECT_EQ(round.tenants[1].shards, 2);
  ASSERT_TRUE(round.tenants[1].engine.has_value());
  EXPECT_EQ(round.tenants[1].engine->n_bits, 12);
  EXPECT_FALSE(round.tenants[0].engine.has_value())
      << "a tenant without its own engine must stay inheriting the default";
}

TEST(ServerOptionsJson, ParseErrorsNameTheOffendingToken) {
  expect_parse_error<ServerOptions>("not json", "expected '{'");
  expect_parse_error<ServerOptions>("{\"bogus\":1}", "unknown key \"bogus\"");
  expect_parse_error<ServerOptions>("{\"workers\":\"two\"}",
                                    "expected an integer");
  // The admission queue has one implementation; the old selector key is gone.
  expect_parse_error<ServerOptions>("{\"queue_kind\":\"mutex\"}",
                                    "unknown key \"queue_kind\"");
  expect_parse_error<ServerOptions>("{\"start_paused\":maybe}",
                                    "expected true or false");
  expect_parse_error<ServerOptions>("{\"tenants\":[{\"name\":\"a\"}",
                                    "unexpected end");
  expect_parse_error<ServerOptions>("{\"tenants\":[{\"shards\":true}]}",
                                    "expected an integer");
  expect_parse_error<ServerOptions>("{\"workers\":1}x", "trailing");
}

TEST(ServerOptionsJson, ValidateCatchesDuplicateAndReservedTenantNames) {
  ServerOptions opts;
  TenantOptions a;
  a.name = "same";
  opts.tenants = {a, a};
  try {
    opts.validate();
    FAIL() << "expected invalid_argument for the duplicate tenant name";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate name \"same\""),
              std::string::npos)
        << e.what();
  }
  opts.tenants.clear();
  TenantOptions reserved;
  reserved.name = "queue_depth";
  opts.tenants = {reserved};
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace scnn::serve
