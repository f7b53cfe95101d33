#include "common/fixed_point.hpp"

#include <cmath>

namespace scnn::common {

float pow2_ceil(float v) {
  if (v <= 1.0f) return 1.0f;
  return std::exp2(std::ceil(std::log2(v)));
}

}  // namespace scnn::common
