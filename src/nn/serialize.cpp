#include "nn/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace scnn::nn {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'N', 'N', '0', '0', '0', '1'};

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void save_checkpoint(Network& net, const std::string& path) {
  const std::vector<float> blob = net.save_parameters();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  out.write(kMagic, sizeof kMagic);
  const std::uint64_t count = blob.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size() * sizeof(float)));
  const std::uint64_t checksum = fnv1a(blob.data(), blob.size() * sizeof(float));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + path);
}

void load_checkpoint(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  // The count is untrusted: bound it by the bytes the file actually holds
  // between the header and the checksum trailer before sizing anything.
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("load_checkpoint: cannot size " + path);
  constexpr std::uint64_t kFraming = sizeof kMagic + 2 * sizeof(std::uint64_t);
  const std::uint64_t payload = file_size > kFraming ? file_size - kFraming : 0;
  if (count > payload / sizeof(float))
    throw std::runtime_error("load_checkpoint: header claims " + std::to_string(count) +
                             " floats but " + path + " is only " +
                             std::to_string(file_size) + " bytes");
  std::vector<float> blob(count);
  in.read(reinterpret_cast<char*>(blob.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  std::uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof checksum);
  if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  if (checksum != fnv1a(blob.data(), blob.size() * sizeof(float)))
    throw std::runtime_error("load_checkpoint: checksum mismatch in " + path);
  for (std::size_t i = 0; i < blob.size(); ++i)
    if (!std::isfinite(blob[i]))
      throw std::runtime_error("load_checkpoint: non-finite weight at element " +
                               std::to_string(i) + " in " + path);
  net.load_parameters(blob);  // throws on parameter-count mismatch
}

bool checkpoint_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  in.read(magic, sizeof magic);
  return in && std::memcmp(magic, kMagic, sizeof kMagic) == 0;
}

}  // namespace scnn::nn
