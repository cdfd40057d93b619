#include "rt/failpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "rt/budget.hpp"

namespace ictl::rt {

namespace detail {
bool g_failpoints_armed = false;
}

namespace {

/// name -> hits still to skip before firing.  Function-local static so the
/// before-main env arming below never races static init order.
std::map<std::string, std::uint64_t, std::less<>>& armed_map() {
  static std::map<std::string, std::uint64_t, std::less<>> map;
  return map;
}

// Env arming runs before main() the first time this TU is linked in; the
// bool only exists to force the call.
[[maybe_unused]] const bool g_env_armed = arm_failpoints_from_env();

}  // namespace

namespace detail {
void failpoint_hit(const char* name) {
  auto& map = armed_map();
  const auto it = map.find(std::string_view(name));
  if (it == map.end()) return;
  if (it->second > 0) {
    --it->second;
    return;
  }
  // One-shot: disarm before throwing so a post-trip retry of the same
  // query runs to completion.
  map.erase(it);
  g_failpoints_armed = !map.empty();
  throw Interrupted(std::string("interrupted: failpoint '") + name +
                    "' tripped");
}
}  // namespace detail

void arm_failpoint(std::string_view name, std::uint64_t skip) {
  if (name.empty()) return;
  armed_map()[std::string(name)] = skip;
  detail::g_failpoints_armed = true;
}

void disarm_failpoints() {
  armed_map().clear();
  detail::g_failpoints_armed = false;
}

std::size_t armed_failpoints() { return armed_map().size(); }

bool arm_failpoints_from_spec(std::string_view spec) {
  if (spec.empty()) return false;
  // Validate the whole spec before arming any entry, so a typo arms
  // nothing rather than half the list.
  struct Entry {
    std::string_view name;
    std::uint64_t skip;
  };
  std::vector<Entry> entries;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) return false;
    std::uint64_t skip = 0;
    const std::size_t at = item.rfind('@');
    if (at != std::string_view::npos) {
      const std::string_view digits = item.substr(at + 1);
      if (digits.empty()) return false;
      for (const char c : digits) {
        if (c < '0' || c > '9') return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        // A skip past 2^64 - 1 is malformed, like an out-of-range cap.
        if (skip > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
          return false;
        skip = skip * 10 + digit;
      }
      item = item.substr(0, at);
      if (item.empty()) return false;
    }
    entries.push_back({item, skip});
    if (comma == spec.size()) break;
  }
  for (const Entry& e : entries) arm_failpoint(e.name, e.skip);
  return !entries.empty();
}

bool arm_failpoints_from_env() {
  const char* spec = std::getenv("ICTL_FAILPOINT");
  if (spec == nullptr) return false;
  return arm_failpoints_from_spec(spec);
}

}  // namespace ictl::rt
