// RAII guard for tests that assert how a kAuto setting *resolves*: it parks
// an ambient environment override (the forced SCNN_BACKEND / SCNN_SPARSITY
// CI legs) for the test's duration and restores it afterwards, because the
// env legitimately outranks the default resolution — under
// SCNN_BACKEND=scalar, kAuto honestly resolves to scalar. Tests may setenv
// the variable freely inside the scope; the destructor puts back whatever
// was there before.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace scnn {

class ScopedUnsetEnv {
 public:
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    if (const char* env = std::getenv(name)) saved_ = env;
    unsetenv(name);
  }
  ~ScopedUnsetEnv() {
    if (saved_)
      setenv(name_, saved_->c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedUnsetEnv(const ScopedUnsetEnv&) = delete;
  ScopedUnsetEnv& operator=(const ScopedUnsetEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace scnn
