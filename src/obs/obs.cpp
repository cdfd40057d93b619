#include "obs/obs.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace ictl::obs {

namespace detail {
bool g_enabled = false;
}

std::uint64_t now_ns() {
  // ictl-lint: allow(obs-clock) — this IS the sanctioned clock.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_enabled(bool on) noexcept { detail::g_enabled = kCompiledIn && on; }

void append_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void append_json_counters(std::ostream& out,
                          const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  out << '{';
  const char* separator = "";
  for (const auto& [path, value] : counters) {
    out << separator;
    separator = ", ";
    append_json_string(out, path);
    out << ": " << value;
  }
  out << '}';
}

// ---- Registry ---------------------------------------------------------------

namespace {

std::string join_path(std::string_view scope, std::string_view name) {
  std::string path;
  path.reserve(scope.size() + 1 + name.size());
  path.append(scope);
  path.push_back('/');
  path.append(name);
  return path;
}

}  // namespace

Counter& Registry::counter(std::string_view scope, std::string_view name) {
  return cells_[join_path(scope, name)];
}

void Registry::set(std::string_view scope, std::string_view name,
                   std::uint64_t value) {
  counter(scope, name).value = value;
}

std::uint64_t Registry::value(std::string_view scope,
                              std::string_view name) const {
  const auto it = cells_.find(join_path(scope, name));
  return it == cells_.end() ? 0 : it->second.value;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(cells_.size());
  for (const auto& [path, cell] : cells_) out.emplace_back(path, cell.value);
  return out;
}

std::string Registry::to_json() const {
  std::ostringstream out;
  out << "{\"counters\": ";
  append_json_counters(out, snapshot());
  out << '}';
  return out.str();
}

void Registry::reset() {
  for (auto& [path, cell] : cells_) cell.value = 0;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

// ---- Profiler ---------------------------------------------------------------

Profiler::Node* Profiler::enter(const char* scope, const char* name) {
  std::string label = join_path(scope, name);
  for (const auto& child : current_->children) {
    if (child->label == label) {
      current_ = child.get();
      return current_;
    }
  }
  auto node = std::make_unique<Node>();
  node->label = std::move(label);
  node->parent = current_;
  current_->children.push_back(std::move(node));
  current_ = current_->children.back().get();
  return current_;
}

void Profiler::exit(Node* node, std::uint64_t elapsed_ns) {
  node->total_ns += elapsed_ns;
  node->count += 1;
  // Spans are strictly nested (RAII), so node is the current position;
  // tolerate a mismatch anyway by walking up until we leave `node`.
  Node* cursor = current_;
  while (cursor != &root_ && cursor != node) cursor = cursor->parent;
  current_ = cursor == node ? node->parent : current_;
}

std::vector<ProfileEntry> Profiler::snapshot() const {
  std::vector<ProfileEntry> out;
  // Iterative pre-order walk; roots are children of the sentinel root_.
  struct Frame {
    const Node* node;
    std::uint32_t depth;
  };
  std::vector<Frame> stack;
  for (auto it = root_.children.rbegin(); it != root_.children.rend(); ++it)
    stack.push_back({it->get(), 0});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    out.push_back({frame.node->label, frame.depth, frame.node->total_ns,
                   frame.node->count});
    for (auto it = frame.node->children.rbegin();
         it != frame.node->children.rend(); ++it)
      stack.push_back({it->get(), frame.depth + 1});
  }
  return out;
}

std::uint64_t Profiler::total_ns() const {
  std::uint64_t total = 0;
  for (const auto& child : root_.children) total += child->total_ns;
  return total;
}

std::string Profiler::report() const {
  const auto entries = snapshot();
  const std::uint64_t total = total_ns();
  std::ostringstream out;
  out << "profile (total " << (static_cast<double>(total) * 1e-6) << " ms):\n";
  if (entries.empty()) {
    out << "  <no spans recorded>\n";
    return out.str();
  }
  for (const auto& entry : entries) {
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(entry.total_ns) /
                         static_cast<double>(total);
    out << "  ";
    for (std::uint32_t i = 0; i < entry.depth; ++i) out << "  ";
    // gimsatul-style: percent-of-total, wall time, call count, label.
    char pct_buf[16];
    std::snprintf(pct_buf, sizeof(pct_buf), "%6.2f%%", pct);
    out << pct_buf << "  " << (static_cast<double>(entry.total_ns) * 1e-6)
        << " ms  x" << entry.count << "  " << entry.label << '\n';
  }
  return out.str();
}

void Profiler::reset() {
  root_.children.clear();
  root_.total_ns = 0;
  root_.count = 0;
  current_ = &root_;
}

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

// ---- Chrome trace export ----------------------------------------------------

namespace {

struct TraceArg {
  const char* key;
  std::uint64_t value;
};

struct TraceEvent {
  const char* name;   // static-storage span name
  const char* cat;    // static-storage span scope
  char phase;         // 'B' or 'E'
  std::uint64_t ts_ns;
  std::vector<TraceArg> args;
};

struct TraceState {
  bool active = false;
  bool was_enabled = false;  // enabled() state to restore at trace_stop
  std::uint64_t t0_ns = 0;
  std::vector<TraceEvent> events;
  // Innermost-first stack of indices into `events` of open B events whose
  // matching E has not been emitted; span_arg() attaches to the top's
  // pending list, flushed onto the E event.
  struct OpenSpan {
    const char* name;
    const char* cat;
    std::vector<TraceArg> pending_args;
  };
  std::vector<OpenSpan> open;
};

TraceState& trace_state() {
  static TraceState state;
  return state;
}

}  // namespace

void trace_start() {
  TraceState& state = trace_state();
  state.events.clear();
  state.open.clear();
  state.active = kCompiledIn;
  state.was_enabled = enabled();
  state.t0_ns = now_ns();
  set_enabled(true);
}

bool tracing() noexcept { return trace_state().active; }

std::size_t trace_stop(std::ostream& out) {
  TraceState& state = trace_state();
  state.active = false;
  set_enabled(state.was_enabled);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : state.events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": ";
    append_json_string(out, event.name);
    out << ", \"cat\": ";
    append_json_string(out, event.cat);
    out << ", \"ph\": \"" << event.phase << "\", \"ts\": "
        // Trace-event timestamps are microseconds; keep sub-µs precision as
        // a fraction so distinct events never collapse onto one tick.
        << (static_cast<double>(event.ts_ns) / 1000.0)
        << ", \"pid\": 1, \"tid\": 1";
    if (!event.args.empty()) {
      out << ", \"args\": {";
      bool first_arg = true;
      for (const TraceArg& arg : event.args) {
        if (!first_arg) out << ", ";
        first_arg = false;
        append_json_string(out, arg.key);
        out << ": " << arg.value;
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
  const std::size_t count = state.events.size();
  state.events.clear();
  state.open.clear();
  return count;
}

std::size_t trace_stop_to_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    // Still stop the recording so state does not leak into the next run.
    std::ostringstream sink;
    trace_stop(sink);
    return 0;
  }
  return trace_stop(out);
}

void span_arg(const char* key, std::uint64_t value) {
  TraceState& state = trace_state();
  if (!state.active || state.open.empty()) return;
  state.open.back().pending_args.push_back({key, value});
}

// ---- SpanGuard --------------------------------------------------------------

SpanGuard::SpanGuard(const char* scope, const char* name) {
  if (!enabled()) return;
  active_ = true;
  start_ = now_ns();
  node_ = Profiler::global().enter(scope, name);
  TraceState& state = trace_state();
  if (state.active) {
    traced_ = true;
    state.events.push_back({name, scope, 'B', start_ - state.t0_ns, {}});
    state.open.push_back({name, scope, {}});
  }
}

SpanGuard::SpanGuard(const char* scope, const char* name, const char* arg_key,
                     std::uint64_t arg_value)
    : SpanGuard(scope, name) {
  if (traced_) {
    TraceState& state = trace_state();
    state.events.back().args.push_back({arg_key, arg_value});
  }
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  Profiler::global().exit(node_, end - start_);
  if (!traced_) return;
  TraceState& state = trace_state();
  // Tracing may have been stopped while this span was open; the B event is
  // gone with the buffer, so do not emit a dangling E.
  if (!state.active) return;
  TraceEvent event{nullptr, nullptr, 'E', end - state.t0_ns, {}};
  if (!state.open.empty()) {
    event.name = state.open.back().name;
    event.cat = state.open.back().cat;
    event.args = std::move(state.open.back().pending_args);
    state.open.pop_back();
  }
  if (event.name != nullptr) state.events.push_back(std::move(event));
}

std::uint64_t SpanGuard::elapsed_ns() const {
  return active_ ? now_ns() - start_ : 0;
}

}  // namespace ictl::obs
