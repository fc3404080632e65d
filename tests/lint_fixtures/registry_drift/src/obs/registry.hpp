#pragma once
#include <string_view>

namespace aa::obs::metric {

// aa-lint-section: counters
inline constexpr std::string_view kFooBar = "foo/bar";

inline constexpr std::string_view kAllCounters[] = {kFooBar};

// aa-lint-section: timers
inline constexpr std::string_view kAllTimers[] = {};

// aa-lint-section: end

}  // namespace aa::obs::metric
