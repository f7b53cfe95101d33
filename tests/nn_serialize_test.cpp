#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "nn/network.hpp"

namespace scnn::nn {
namespace {

namespace fs = std::filesystem;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -j runs each case as its own process, and a
    // shared directory lets concurrent cases clobber each other's m.ckpt.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("scnn_ckpt_test_") + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const char* name) { return (dir_ / name).string(); }
  fs::path dir_;
};

TEST_F(SerializeTest, RoundTripRestoresExactWeights) {
  Network a = make_mnist_net(28, 1, 7);
  save_checkpoint(a, path("m.ckpt"));
  Network b = make_mnist_net(28, 1, 999);  // different init
  load_checkpoint(b, path("m.ckpt"));
  const auto pa = a.save_parameters();
  const auto pb = b.save_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]) << i;
}

TEST_F(SerializeTest, CheckpointExists) {
  EXPECT_FALSE(checkpoint_exists(path("missing.ckpt")));
  Network a = make_mnist_net();
  save_checkpoint(a, path("m.ckpt"));
  EXPECT_TRUE(checkpoint_exists(path("m.ckpt")));
}

TEST_F(SerializeTest, RejectsBadMagic) {
  {
    std::ofstream f(path("bad.ckpt"), std::ios::binary);
    f << "NOTSCNN!restoffile";
  }
  Network net = make_mnist_net();
  EXPECT_THROW(load_checkpoint(net, path("bad.ckpt")), std::runtime_error);
  EXPECT_FALSE(checkpoint_exists(path("bad.ckpt")));
}

TEST_F(SerializeTest, RejectsTopologyMismatch) {
  Network mnist = make_mnist_net();
  save_checkpoint(mnist, path("m.ckpt"));
  Network cifar = make_cifar_net();
  EXPECT_THROW(load_checkpoint(cifar, path("m.ckpt")), std::invalid_argument);
}

TEST_F(SerializeTest, RejectsCorruptedPayload) {
  Network net = make_mnist_net();
  save_checkpoint(net, path("m.ckpt"));
  // Flip one payload byte.
  std::fstream f(path("m.ckpt"), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(100);
  f.put(static_cast<char>(0x5A));
  f.close();
  EXPECT_THROW(load_checkpoint(net, path("m.ckpt")), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  Network net = make_mnist_net();
  save_checkpoint(net, path("m.ckpt"));
  const auto full = fs::file_size(path("m.ckpt"));
  fs::resize_file(path("m.ckpt"), full / 2);
  EXPECT_THROW(load_checkpoint(net, path("m.ckpt")), std::runtime_error);
}

TEST_F(SerializeTest, RejectsCountBeyondFileSizeWithoutAllocating) {
  // A header claiming 2^40 floats (4 TiB) must be refused from the file
  // size alone, before any buffer is sized from the count.
  const std::uint64_t count = std::uint64_t{1} << 40;
  {
    std::ofstream f(path("huge.ckpt"), std::ios::binary);
    f.write("SCNN0001", 8);
    f.write(reinterpret_cast<const char*>(&count), sizeof count);
    const std::uint64_t checksum = 0;
    f.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  }
  const auto size = fs::file_size(path("huge.ckpt"));
  Network net = make_mnist_net();
  try {
    load_checkpoint(net, path("huge.ckpt"));
    FAIL() << "expected load_checkpoint to reject the count";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(count)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(size) + " bytes"), std::string::npos) << msg;
  }
}

TEST_F(SerializeTest, RejectsNonFiniteWeightNamingTheElement) {
  Network net = make_mnist_net();
  std::vector<float> blob = net.save_parameters();
  blob[5] = std::numeric_limits<float>::quiet_NaN();
  net.load_parameters(blob);
  save_checkpoint(net, path("nan.ckpt"));  // checksum covers the NaN
  Network fresh = make_mnist_net();
  try {
    load_checkpoint(fresh, path("nan.ckpt"));
    FAIL() << "expected load_checkpoint to reject the NaN weight";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite weight at element 5"), std::string::npos)
        << e.what();
  }
}

TEST_F(SerializeTest, MissingFileThrows) {
  Network net = make_mnist_net();
  EXPECT_THROW(load_checkpoint(net, path("nope.ckpt")), std::runtime_error);
}

}  // namespace
}  // namespace scnn::nn
