// Deterministic fault injection: a failpoint is a checkpoint phase armed to
// throw.  Every rt::checkpoint(phase) and rt::charge_iteration(phase) hits
// an armed failpoint of the same name before it charges the installed
// budget, and also when no budget is installed, so each phase an engine
// checkpoints can be made to throw ictl::Interrupted from exactly that
// program point — the tool that proves a budget trip (which throws from the
// same points) leaves every manager consistent, reusable, and audit-clean.
//
// Cost: disarmed (the default), one load of a global bool and a never-taken
// branch inside the checkpoint; armed, a map lookup per checkpoint until
// the trigger fires, then the failpoint disarms itself (one-shot) and
// throws.
//
// Arming forms (programmatic arm_failpoint, or a spec string from the
// ICTL_FAILPOINT environment variable / ictl_check --failpoint=):
//   "sym/eu_fixpoint"      trip on the first hit
//   "sym/eu_fixpoint@7"    skip 7 hits, trip on the 8th
//   "a@2,b"                comma-separated list arms several at once
// A skip is a decimal integer below 2^64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ictl::rt {

namespace detail {
/// True while at least one failpoint is armed — the fast-path guard the
/// checkpoints read before paying for a lookup.
extern bool g_failpoints_armed;

/// Slow path behind the checkpoints: looks `name` up among the armed
/// failpoints, decrements its skip count, and throws ictl::Interrupted when
/// it fires.
void failpoint_hit(const char* name);
}  // namespace detail

/// Arms `name`: the (skip + 1)-th checkpoint of phase `name` throws
/// ictl::Interrupted and disarms it (one-shot).  Re-arming an armed name
/// resets its skip count.
void arm_failpoint(std::string_view name, std::uint64_t skip = 0);

/// Disarms everything (tests call this in TearDown for hygiene; a fired
/// failpoint has already disarmed itself).
void disarm_failpoints();

/// Number of currently armed failpoints.
[[nodiscard]] std::size_t armed_failpoints();

/// Parses an arming spec ("name", "name@N", comma-separated) and arms each
/// entry.  Returns false (arming nothing) on a malformed spec, a skip of
/// 2^64 or more included.  This is the one parser behind both the
/// ICTL_FAILPOINT environment variable and the ictl_check --failpoint=
/// flag.
bool arm_failpoints_from_spec(std::string_view spec);

/// arm_failpoints_from_spec(getenv("ICTL_FAILPOINT")); false when unset.
/// Runs once automatically before main() so env arming needs no code.
bool arm_failpoints_from_env();

}  // namespace ictl::rt
