#pragma once

// Tiny command-line flag parser used by the aa_gen / aa_solve tools.
// Supports --key value and --key=value; unknown flags are an error so typos
// fail loudly. Non-flag tokens are collected as positional arguments.

#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace aa::support {

class Args {
 public:
  Args(int argc, char** argv, const std::vector<std::string>& known_flags) {
    for (const std::string& flag : known_flags) known_.insert(flag);
    for (int i = 1; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.push_back(std::move(token));
        continue;
      }
      token = token.substr(2);
      std::string value;
      if (const auto eq = token.find('='); eq != std::string::npos) {
        value = token.substr(eq + 1);
        token = token.substr(0, eq);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::runtime_error("flag --" + token + " needs a value");
      }
      if (known_.find(token) == known_.end()) {
        throw std::runtime_error("unknown flag --" + token);
      }
      flags_[token] = std::move(value);
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : std::stoll(it->second);
  }

  /// A count (servers, workers, requests, ...): throws
  /// std::invalid_argument naming the flag on a negative value rather than
  /// letting it wrap to SIZE_MAX.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const {
    const long long value = get_int(key, static_cast<long long>(fallback));
    if (value < 0) {
      throw std::invalid_argument("--" + key + " must be >= 0, got " +
                                  std::to_string(value));
    }
    return static_cast<std::size_t>(value);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::set<std::string> known_;
  std::vector<std::string> positional_;
};

}  // namespace aa::support
