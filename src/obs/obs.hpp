// The observability spine: one registry of named counters, RAII profile
// spans that accumulate into a hierarchical profile tree (rendered as a
// gimsatul-style percent-of-total report), and a Chrome-trace-event JSON
// emitter (chrome://tracing / Perfetto compatible) — shared by all three
// engines so BDD sweeps, saturation rounds, and evaluator opcodes land in
// one timeline instead of per-subsystem ad-hoc chrono calls.
//
// Cost model, from cheapest to priciest:
//   * compiled out: the ICTL_OBS CMake option (default ON) defines the
//     ICTL_OBS macro; with it OFF every ICTL_* instrumentation macro
//     expands to nothing and obs::enabled() is the constant false, so
//     instrumented code carries zero runtime and zero data;
//   * compiled in, disabled (the default at runtime): a span construction
//     is one branch on a global bool — no clock read, no allocation;
//     counters are a single add on a registered cell;
//   * enabled (set_enabled(true), or implicitly by trace_start()): spans
//     read the monotonic clock twice and bump a profile-tree node; with
//     tracing active they additionally append one B and one E event to an
//     in-memory buffer that trace_stop() serializes.
//
// This header is the ONE sanctioned home of std::chrono::steady_clock:
// tools/ictl_lint's obs-clock rule errors on raw steady/high-resolution
// clock reads anywhere outside src/obs/ and bench/ — library timing goes
// through obs::now_ns() or a span.  Span scope/name strings must have
// static storage duration (string literals): the profiler and the trace
// buffer store the pointers, never copies.
//
// Single-threaded by design, like the engines it instruments; the parallel
// roadmap item gets per-worker registries before it gets a mutex here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ictl::obs {

/// True when the ICTL_OBS gate compiled the instrumentation in.  Runtime
/// classes below exist either way (snapshots, reports, and the JSON export
/// keep working so CLIs need no #ifdefs); only span/counter RECORDING is
/// compiled out.
#if defined(ICTL_OBS)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// Monotonic nanoseconds since an arbitrary epoch — the library's one clock.
[[nodiscard]] std::uint64_t now_ns();

/// Writes `s` to `out` as a JSON string literal: quoted, with `"`, `\` and
/// every control character escaped.  The one escaper behind every JSON the
/// library writes — the counter export, the Chrome trace and rt's trip
/// reports.
void append_json_string(std::ostream& out, std::string_view s);

/// Writes (path, value) pairs to `out` as one JSON object,
/// {"bdd/gc_runs": 3, ...}, in the order given.  The one counters writer
/// behind Registry::to_json and rt's trip reports.
void append_json_counters(std::ostream& out,
                          const std::vector<std::pair<std::string, std::uint64_t>>& counters);

namespace detail {
extern bool g_enabled;  // written by set_enabled / trace_start only
}

/// The runtime enable flag behind every span.  Constant false when the
/// instrumentation is compiled out, so instrumented branches fold away.
[[nodiscard]] inline bool enabled() noexcept {
  return kCompiledIn && detail::g_enabled;
}

/// Arms (or disarms) span recording.  Counters record regardless: they are
/// cheaper than the branch that would skip them.
void set_enabled(bool on) noexcept;

/// A registered counter cell.  Cells live for the process lifetime (the
/// registry never erases), so instrumentation sites may cache a reference —
/// the ICTL_COUNT macros do, via a function-local static.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t delta = 1) noexcept { value += delta; }
  /// High-water gauges: keeps the larger of the value and `v`.
  void raise_to(std::uint64_t v) noexcept {
    if (v > value) value = v;
  }
};

/// Hierarchical registry of named counters: names are "scope/name" paths
/// ("bdd/gc_runs", "eval/instructions"), one namespace across every engine,
/// so snapshot()/to_json() is the single export.  The per-object stats
/// structs (BddManager::Stats, eval::EvalStats, ...) are per-instance views
/// that the registry does not mirror.
class Registry {
 public:
  /// The cell for scope/name, registered on first use (stable reference).
  [[nodiscard]] Counter& counter(std::string_view scope, std::string_view name);

  /// Overwrites the cell's value (a gauge).
  void set(std::string_view scope, std::string_view name, std::uint64_t value);

  /// Current value; 0 when the cell was never registered.
  [[nodiscard]] std::uint64_t value(std::string_view scope,
                                    std::string_view name) const;

  /// All (path, value) pairs, sorted by path.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// {"counters": {"bdd/gc_runs": 3, ...}} — the unified JSON export.
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every cell (cells stay registered, references stay valid).
  void reset();

  /// The process-wide registry all instrumentation macros record into.
  [[nodiscard]] static Registry& global();

 private:
  // std::map: node-based, so counter() references stay stable forever.
  std::map<std::string, Counter, std::less<>> cells_;
};

/// One aggregated profile-tree node in a snapshot, pre-order with depth.
struct ProfileEntry {
  std::string label;  ///< "scope/name"
  std::uint32_t depth = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// The profile tree spans accumulate into: one node per (parent, label),
/// so repeated spans aggregate and nesting is preserved.
class Profiler {
 public:
  /// Pre-order flattening of the tree (roots at depth 0).
  [[nodiscard]] std::vector<ProfileEntry> snapshot() const;

  /// Gimsatul-style percent-of-total text report: children indented under
  /// their parents, percentages relative to the summed root wall time.
  [[nodiscard]] std::string report() const;

  /// Drops every node.  Must not be called while spans are open.
  void reset();

  /// Total nanoseconds across the root spans (the report's 100%).
  [[nodiscard]] std::uint64_t total_ns() const;

  [[nodiscard]] static Profiler& global();

 private:
  friend class SpanGuard;
  struct Node {
    std::string label;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
    Node* parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
  };

  Node* enter(const char* scope, const char* name);
  void exit(Node* node, std::uint64_t elapsed_ns);

  Node root_;
  Node* current_ = &root_;
};

// ---- Chrome trace export ----------------------------------------------------

/// Starts recording trace events (clearing any previous buffer) and arms
/// span recording (set_enabled(true)).  Timestamps are relative to this
/// call.  With the instrumentation compiled out the buffer stays empty.
void trace_start();

/// True between trace_start() and trace_stop().
[[nodiscard]] bool tracing() noexcept;

/// Stops recording and writes {"traceEvents": [...]} — loadable in
/// chrome://tracing and Perfetto — to `out`.  Every span contributes a
/// balanced B/E pair with category = scope; args attach as "args" objects.
/// Returns the number of events written and clears the buffer.  Call with
/// every span closed, or the tail B events will lack their E partners.
std::size_t trace_stop(std::ostream& out);

/// trace_stop() into a file; returns the event count (0 on open failure).
std::size_t trace_stop_to_file(const std::string& path);

/// Attaches key = value to the innermost open span (recorded on its E
/// event).  No-op when no span is open or tracing is off.  `key` must have
/// static storage duration.
void span_arg(const char* key, std::uint64_t value);

/// RAII profile span: construction (when enabled()) stamps the clock,
/// enters the profile tree, and — when tracing — emits a B event;
/// destruction accumulates the elapsed time and emits the matching E.
/// Scope and name must be string literals (pointers are stored).  Prefer
/// the ICTL_PROFILE macros, which compile out under -DICTL_OBS=OFF.
class SpanGuard {
 public:
  SpanGuard(const char* scope, const char* name);
  /// Span with one argument attached to its B event.
  SpanGuard(const char* scope, const char* name, const char* arg_key,
            std::uint64_t arg_value);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Nanoseconds since construction (0 when the span is inactive).
  [[nodiscard]] std::uint64_t elapsed_ns() const;

 private:
  Profiler::Node* node_ = nullptr;
  std::uint64_t start_ = 0;
  bool active_ = false;
  bool traced_ = false;
};

}  // namespace ictl::obs

// ---- Instrumentation macros -------------------------------------------------
//
// The compile-time gate: with the ICTL_OBS CMake option OFF these expand to
// static_cast<void>(0), so instrumented translation units build warning-
// free with zero observability residue (the CI obs-off leg proves it under
// -Werror).  Scope/name/key arguments must be string literals.

#if defined(ICTL_OBS)

#define ICTL_OBS_CAT_IMPL(a, b) a##b
#define ICTL_OBS_CAT(a, b) ICTL_OBS_CAT_IMPL(a, b)

/// RAII span covering the rest of the enclosing block.
#define ICTL_PROFILE(scope, name) \
  ::ictl::obs::SpanGuard ICTL_OBS_CAT(ictl_obs_span_, __LINE__)((scope), (name))

/// Span with one argument on its B event.
#define ICTL_PROFILE_ARG(scope, name, key, value)                \
  ::ictl::obs::SpanGuard ICTL_OBS_CAT(ictl_obs_span_, __LINE__)( \
      (scope), (name), (key), static_cast<std::uint64_t>(value))

/// Attaches key = value to the innermost open span's E event.
#define ICTL_SPAN_ARG(key, value) \
  ::ictl::obs::span_arg((key), static_cast<std::uint64_t>(value))

/// Bumps the registry counter scope/name by 1 (cell resolved once).
#define ICTL_COUNT(scope, name) ICTL_COUNT_ADD(scope, name, 1)

#define ICTL_COUNT_ADD(scope, name, delta)                        \
  do {                                                            \
    static ::ictl::obs::Counter& ictl_obs_counter =               \
        ::ictl::obs::Registry::global().counter((scope), (name)); \
    ictl_obs_counter.add(static_cast<std::uint64_t>(delta));      \
  } while (false)

/// Raises the registry gauge scope/name to `value` when larger.
#define ICTL_COUNT_MAX(scope, name, value)                        \
  do {                                                            \
    static ::ictl::obs::Counter& ictl_obs_counter =               \
        ::ictl::obs::Registry::global().counter((scope), (name)); \
    ictl_obs_counter.raise_to(static_cast<std::uint64_t>(value)); \
  } while (false)

#else  // !defined(ICTL_OBS)

#define ICTL_PROFILE(scope, name) static_cast<void>(0)
#define ICTL_PROFILE_ARG(scope, name, key, value) static_cast<void>(0)
#define ICTL_SPAN_ARG(key, value) static_cast<void>(0)
#define ICTL_COUNT(scope, name) static_cast<void>(0)
#define ICTL_COUNT_ADD(scope, name, delta) static_cast<void>(0)
#define ICTL_COUNT_MAX(scope, name, value) static_cast<void>(0)

#endif  // defined(ICTL_OBS)
