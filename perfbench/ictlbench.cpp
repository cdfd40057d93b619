// ictlbench: the cold-start benchmark program for the ictl library.
//
//   ictlbench gen <workload> <dir>
//       Writes the inputs a workload reads: the formula table (both
//       workloads), saved reachable rings (symbolic) and the text form of
//       M_13 (explicit).  Generation is deterministic and is never timed.
//   ictlbench run <workload> <dir> <plan> <seconds> <trace>
//       Sets the workload up, runs every query once untimed (for the peak
//       RSS), then runs the plan's decks as a closed loop with one client
//       until <seconds> have passed, finishing the deck in progress so every
//       run sees whole decks, and setting up again after each deck (the
//       median setup time is setup_s).  Prints one JSON object as the last
//       line.  With <trace> = 1 every second deck runs traced: those decks
//       give the per-layer metrics and a layer table with an unattributed
//       row, and the difference of the traced and untraced medians is the
//       tracing overhead.
//
// Two workloads, each mixing two query kinds in every deck: symbolic
// (sym_reach, sym_check) and explicit (explicit_check, reduction).  Every
// query starts cold: a fresh BddManager (sym_reach builds one, sym_check
// loads into one) and a fresh checker.  Each query runs under an
// rt::BudgetScope with a generous deadline, so a runaway query fails
// instead of stalling the run.  Every answer is checked against the
// benchmark's own table of known verdicts and its own exact arithmetic.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ictl.hpp"

namespace {

using namespace ictl;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t kQueryDeadlineNs = 30'000'000'000ULL;
constexpr std::uint32_t kExplicitSize = 13;
constexpr std::uint32_t kReductionBase = 3;
const std::vector<std::uint32_t> kReductionSizes = {4, 5, 6, 7, 8};
const std::vector<std::uint32_t> kStoredRings = {12, 16, 20, 64, 128};

[[noreturn]] void die(const std::string& what) {
  std::cerr << "ictlbench: " << what << "\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) die("cannot write " + path);
}

// ---- Known answers ----------------------------------------------------------

// r * 2^r as a decimal string, by schoolbook doubling: the benchmark's own
// exact arithmetic, independent of the library's SatCount.
std::string ring_state_count_decimal(std::uint32_t r) {
  std::vector<int> digits;  // little-endian decimal digits
  for (std::uint32_t v = r; v > 0; v /= 10) digits.push_back(static_cast<int>(v % 10));
  for (std::uint32_t k = 0; k < r; ++k) {
    int carry = 0;
    for (int& d : digits) {
      const int x = 2 * d + carry;
      d = x % 10;
      carry = x / 10;
    }
    if (carry > 0) digits.push_back(carry);
  }
  std::string out;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it)
    out.push_back(static_cast<char>('0' + *it));
  return out;
}

// The seven base formulas hold in M_r for every r >= 3 (the Section 5
// specifications, and the ring-correspondence witness that separates M_2
// from larger rings); a name starting with '!' is a negation and fails.
bool expected_verdict(const std::string& name) { return name.empty() || name[0] != '!'; }

std::vector<std::pair<std::string, logic::FormulaPtr>> base_formulas() {
  return {
      {"P1", ring::property_transfer_only_on_request()},
      {"P2", ring::property_critical_implies_token()},
      {"P3", ring::property_request_granted()},
      {"P4", ring::property_eventually_critical()},
      {"I2", ring::invariant_request_persistence()},
      {"I3", ring::invariant_one_token()},
      {"D", ring::distinguishing_formula()},
  };
}

// ---- Per-layer accounting -----------------------------------------------------

// Sums for the traced phase: benchmark-side spans around calls into each
// module, and counters read from the library at the end of each query.
class Layers {
 public:
  bool on = false;

  void add(const std::string& metric, double value) {
    if (on) sums_[metric] += value;
  }
  void set(const std::string& metric, double value) { sums_[metric] = value; }
  void add_span(const std::string& metric, std::uint64_t ns) {
    if (!on) return;
    const bool micros = metric.size() > 3 && metric.compare(metric.size() - 3, 3, "_us") == 0;
    sums_[metric] += static_cast<double>(ns) / (micros ? 1e3 : 1e6);
    covered_ns_ += ns;
  }
  [[nodiscard]] double sum(const std::string& metric) const {
    const auto it = sums_.find(metric);
    return it == sums_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] std::uint64_t covered_ns() const { return covered_ns_; }

 private:
  std::map<std::string, double> sums_;
  std::uint64_t covered_ns_ = 0;
};

// A benchmark-side span: times one call into a module while tracing.
class Span {
 public:
  Span(Layers& layers, const char* metric)
      : layers_(layers), metric_(metric), start_(layers.on ? now_ns() : 0) {}
  ~Span() {
    if (layers_.on) layers_.add_span(metric_, now_ns() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers& layers_;
  const char* metric_;
  std::uint64_t start_;
};

std::uint64_t counter(const char* scope, const char* name) {
  return obs::Registry::global().value(scope, name);
}

void add_bdd_counters(Layers& layers, const symbolic::BddManager& mgr) {
  if (!layers.on) return;
  const auto& s = mgr.stats();
  layers.add("bdd.cache_hits", static_cast<double>(s.cache_hits));
  layers.add("bdd.cache_lookups", static_cast<double>(s.cache_hits + s.cache_misses));
}

void add_eval_counters(Layers& layers, const eval::EvalStats& s) {
  if (!layers.on) return;
  layers.add("eval.instructions", static_cast<double>(s.instructions));
  layers.add("eval.fixpoint_iterations", static_cast<double>(s.fixpoint_iterations));
  for (const eval::OpCode op : {eval::OpCode::kNot, eval::OpCode::kLeaf, eval::OpCode::kEX,
                                eval::OpCode::kEU, eval::OpCode::kEG, eval::OpCode::kAnd,
                                eval::OpCode::kOr}) {
    layers.add(std::string("eval.op_ns.") + eval::opcode_name(op),
               static_cast<double>(s.op_ns[static_cast<std::size_t>(op)]));
  }
}

// ---- Workloads ----------------------------------------------------------------

struct Query {
  std::string kind;  // sym_reach, sym_check, explicit_check or reduction
  std::uint32_t r = 0;
  std::string formula;  // a formula-table name; "-" for sym_reach
};

struct NamedFormula {
  std::string name;
  std::string text;
  logic::FormulaPtr formula;
};

std::vector<NamedFormula> parse_formula_table(const std::string& text, bool parse) {
  std::vector<NamedFormula> table;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) die("malformed formula table line: " + line);
    NamedFormula f{line.substr(0, tab), line.substr(tab + 1), nullptr};
    if (parse) f.formula = logic::parse_formula(f.text);
    table.push_back(std::move(f));
  }
  if (table.size() != 14) die("formula table must hold 14 formulas");
  return table;
}

const NamedFormula& find_formula(const std::vector<NamedFormula>& table,
                                 const std::string& name) {
  for (const auto& f : table)
    if (f.name == name) return f;
  die("unknown formula " + name);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything that must exist before the first query can run.  Called
  /// several times; each call replaces the previous state.
  virtual void setup() = 0;
  /// Runs one query; true when every answer matched the known one.
  virtual bool query(const Query& q, Layers& layers) = 0;
  /// Layer figures computed once, after the last query.
  virtual void finish(Layers& layers, double peak_rss_bytes) {
    static_cast<void>(layers);
    static_cast<void>(peak_rss_bytes);
  }
};

// sym_reach: build the symbolic ring, compute reachability, count exactly,
// save to an in-memory blob.  The evaluator is never called.
class SymReach final : public Workload {
 public:
  void setup() override {
    expected_.clear();
    for (const std::uint32_t r : {64u, 96u, 128u}) expected_[r] = ring_state_count_decimal(r);
  }

  bool query(const Query& q, Layers& layers) override {
    const auto it = expected_.find(q.r);
    if (it == expected_.end()) die("sym_reach: unexpected size");
    const std::uint64_t sweeps0 = counter("sym", "saturation_sweeps");
    const symbolic::SymbolicRing ring = [&] {
      Span span(layers, "symbolic.encode_ms");
      return symbolic::build_symbolic_ring(q.r);
    }();
    {
      Span span(layers, "symbolic.reach_ms");
      static_cast<void>(ring.system->reachable());
    }
    std::string count;
    {
      Span span(layers, "symbolic.count_ms");
      count = ring.system->num_states().to_decimal_string();
    }
    std::string blob;
    {
      Span span(layers, "store.save_ms");
      std::ostringstream out;
      symbolic::save_transition_system(*ring.system, out);
      blob = std::move(out).str();
    }
    if (layers.on) {
      const symbolic::BddManager& mgr = ring.system->manager();
      layers.add("store.blob_bytes", static_cast<double>(blob.size()));
      layers.add("sym.saturation_sweeps",
                 static_cast<double>(counter("sym", "saturation_sweeps") - sweeps0));
      layers.add("bdd.nodes_allocated", static_cast<double>(mgr.stats().peak_nodes));
      layers.add("bdd.live_nodes_end", static_cast<double>(mgr.live_nodes()));
      add_bdd_counters(layers, mgr);
    }
    return count == it->second && !blob.empty();
  }

 private:
  std::map<std::uint32_t, std::string> expected_;
};

kripke::PropRegistryPtr read_registry(const std::string& text) {
  auto registry = kripke::make_registry();
  std::istringstream in(text);
  std::string kind, base;
  std::uint32_t index = 0;
  kripke::PropId next = 0;
  while (in >> kind >> base >> index) {
    kripke::PropId id = 0;
    if (kind == "plain") id = registry->plain(base);
    else if (kind == "indexed") id = registry->indexed(base, index);
    else if (kind == "theta") id = registry->theta(base);
    else if (kind == "erased") id = registry->indexed_base(base);
    else die("unknown proposition kind " + kind);
    if (id != next++) die("proposition table is not dense");
  }
  return registry;
}

std::string write_registry(const kripke::PropRegistry& registry) {
  std::ostringstream out;
  for (kripke::PropId id = 0; id < registry.size(); ++id) {
    switch (registry.kind(id)) {
      case kripke::PropKind::kPlain: out << "plain"; break;
      case kripke::PropKind::kIndexed: out << "indexed"; break;
      case kripke::PropKind::kTheta: out << "theta"; break;
      case kripke::PropKind::kIndexedBase: out << "erased"; break;
    }
    const bool indexed = registry.kind(id) == kripke::PropKind::kIndexed;
    out << ' ' << registry.base_name(id) << ' ' << (indexed ? registry.index_of(id) : 0)
        << '\n';
  }
  return out.str();
}

// sym_check: reload a saved ring (adopting its stored reachable set) into a
// fresh manager, then compile and evaluate one formula with a fresh
// symbolic checker.  Setup reloads every blob once and re-checks its count.
class SymCheck final : public Workload {
 public:
  explicit SymCheck(const std::string& dir) : formula_text_(read_file(dir + "/formulas.tsv")) {
    for (const std::uint32_t r : kStoredRings) {
      const std::string stem = dir + "/ring" + std::to_string(r);
      blobs_[r] = read_file(stem + ".blob");
      prop_text_[r] = read_file(stem + ".props");
    }
  }

  void setup() override {
    formulas_ = parse_formula_table(formula_text_, /*parse=*/true);
    registries_.clear();
    for (const std::uint32_t r : kStoredRings) {
      registries_[r] = read_registry(prop_text_[r]);
      std::istringstream in(blobs_[r]);
      const symbolic::TransitionSystem system =
          symbolic::load_transition_system(in, registries_[r]);
      if (!system.reachable_computed() ||
          system.num_states().to_decimal_string() != ring_state_count_decimal(r))
        die("stored ring " + std::to_string(r) + " does not reload with r * 2^r states");
    }
  }

  bool query(const Query& q, Layers& layers) override {
    const NamedFormula& f = find_formula(formulas_, q.formula);
    const std::uint64_t pre0 = counter("sym", "pre_images");
    std::shared_ptr<const symbolic::TransitionSystem> system = [&] {
      Span span(layers, "store.load_ms");
      std::istringstream in(blobs_.at(q.r));
      return std::make_shared<const symbolic::TransitionSystem>(
          symbolic::load_transition_system(in, registries_.at(q.r)));
    }();
    std::optional<symbolic::CtlChecker> checker;
    {
      Span span(layers, "eval.compile_ms");
      checker.emplace(system);
      static_cast<void>(checker->program(f.formula));
    }
    bool verdict = false;
    {
      Span span(layers, "eval.eval_ms");
      verdict = checker->holds_initially(f.formula);
    }
    if (layers.on) {
      layers.add("sym.pre_images", static_cast<double>(counter("sym", "pre_images") - pre0));
      add_eval_counters(layers, checker->eval_stats());
      add_bdd_counters(layers, system->manager());
    }
    return verdict == expected_verdict(f.name);
  }

 private:
  std::string formula_text_;
  std::map<std::uint32_t, std::string> blobs_;
  std::map<std::uint32_t, std::string> prop_text_;
  std::vector<NamedFormula> formulas_;
  std::map<std::uint32_t, kripke::PropRegistryPtr> registries_;
};

// explicit_check: the ictl_check path on the text form of M_13 — parse the
// formula text, check it, then extract evidence with a fresh checker.
class ExplicitCheck final : public Workload {
 public:
  explicit ExplicitCheck(const std::string& dir)
      : model_text_(read_file(dir + "/m13.kts")),
        formulas_(parse_formula_table(read_file(dir + "/formulas.tsv"), /*parse=*/false)) {}

  void setup() override {
    model_.reset();
    const std::uint64_t t0 = now_ns();
    std::istringstream in(model_text_);
    model_ = std::make_unique<kripke::Structure>(
        kripke::read_structure(in, kripke::make_registry()));
    read_ns_.push_back(now_ns() - t0);
    if (std::to_string(model_->num_states()) != ring_state_count_decimal(kExplicitSize))
      die("M_13 text does not read back with 13 * 2^13 states");
  }

  bool query(const Query& q, Layers& layers) override {
    const NamedFormula& named = find_formula(formulas_, q.formula);
    const bool expected = expected_verdict(named.name);
    const std::uint64_t pre0 = counter("kripke", "pre_images");
    logic::FormulaPtr f;
    {
      Span span(layers, "logic.parse_us");
      f = logic::parse_formula(named.text);
    }
    mc::IndexedCheckResult result;
    {
      Span span(layers, "mc.check_ms");
      result = mc::check_indexed(*model_, f);
    }
    bool consistent = false;
    {
      Span span(layers, "mc.witness_ms");
      mc::CtlChecker checker(*model_);
      const auto explanation = mc::explain(checker, f, model_->initial());
      // The explaining checker must agree with check_indexed, and any trace
      // must argue for the verdict, not against it.
      consistent = checker.holds_initially(f) == expected &&
                   (!explanation.has_value() ||
                    (explanation->kind == mc::WitnessKind::kWitness) == expected);
      add_eval_counters(layers, checker.eval_stats());
    }
    layers.add("kripke.pre_images",
               static_cast<double>(counter("kripke", "pre_images") - pre0));
    return result.holds == expected && consistent;
  }

  void finish(Layers& layers, double peak_rss_bytes) override {
    std::vector<std::uint64_t> sorted = read_ns_;
    std::sort(sorted.begin(), sorted.end());
    layers.set("kripke.read_ms", static_cast<double>(sorted[sorted.size() / 2]) / 1e6);
    layers.set("kripke.bytes_per_state",
               peak_rss_bytes / static_cast<double>(model_->num_states()));
  }

 private:
  std::string model_text_;
  std::vector<NamedFormula> formulas_;
  std::unique_ptr<kripke::Structure> model_;
  std::vector<std::uint64_t> read_ns_;
};

// Forwards to the ring family and marks the layer boundaries inside
// core::verify_for_all.  verify_for_all calls instance(base), checks the
// formula there (mc::holds), then for each size calls instance(r),
// index_relation(base, r) and bisim::certify_theorem5.  The family calls
// are ring spans; the interval after instance(base) up to the next family
// call is the base check, and the interval after index_relation up to the
// next family call (or the return) is that size's certificate.
class TimedFamily final : public core::ParameterizedFamily {
 public:
  TimedFamily(const core::ParameterizedFamily& inner, Layers& layers)
      : inner_(inner), layers_(layers) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint32_t min_size() const override { return inner_.min_size(); }
  [[nodiscard]] std::uint32_t max_explicit_size() const override {
    return inner_.max_explicit_size();
  }
  [[nodiscard]] kripke::Structure instance(std::uint32_t r) const override {
    enter();
    kripke::Structure m = inner_.instance(r);
    leave(r == kReductionBase ? "mc.base_check_ms" : nullptr);
    return m;
  }
  [[nodiscard]] std::vector<bisim::IndexPair> index_relation(
      std::uint32_t r0, std::uint32_t r) const override {
    enter();
    auto in = inner_.index_relation(r0, r);
    leave("bisim.certify_ms");
    return in;
  }
  [[nodiscard]] std::optional<bisim::Theorem5Certificate> analytic_certificate(
      std::uint32_t r0, std::uint32_t r) const override {
    return inner_.analytic_certificate(r0, r);
  }
  [[nodiscard]] std::uint32_t max_symbolic_size() const override {
    return inner_.max_symbolic_size();
  }
  [[nodiscard]] std::shared_ptr<symbolic::TransitionSystem> symbolic_instance(
      std::uint32_t r) const override {
    return inner_.symbolic_instance(r);
  }

  /// Closes the interval still open when verify_for_all returns.
  void close() const { enter(); }

 private:
  void enter() const {
    if (!layers_.on) return;
    entered_ = now_ns();
    if (pending_ != nullptr) layers_.add_span(pending_, entered_ - left_);
    pending_ = nullptr;
  }
  void leave(const char* next) const {
    if (!layers_.on) return;
    left_ = now_ns();
    layers_.add_span("ring.instance_ms", left_ - entered_);
    pending_ = next;
  }

  const core::ParameterizedFamily& inner_;
  Layers& layers_;
  mutable std::uint64_t entered_ = 0;
  mutable std::uint64_t left_ = 0;
  mutable const char* pending_ = nullptr;
};

// reduction: the paper's method — check at the base size, certify Theorem 5
// explicitly for each larger size, transfer the verdict.
class Reduction final : public Workload {
 public:
  explicit Reduction(const std::string& dir)
      : formula_text_(read_file(dir + "/formulas.tsv")) {}

  void setup() override {
    family_ = std::make_unique<core::RingMutexFamily>();
    formulas_ = parse_formula_table(formula_text_, /*parse=*/true);
  }

  bool query(const Query& q, Layers& layers) override {
    const NamedFormula& f = find_formula(formulas_, q.formula);
    const bool expected = expected_verdict(f.name);
    const TimedFamily family(*family_, layers);
    core::VerifyOptions options;
    options.use_analytic_certificates = false;
    const core::VerifyForAllResult result = core::verify_for_all(
        family, f.formula, kReductionBase, kReductionSizes, options);
    family.close();
    bool ok = result.holds_at_base == expected && result.all_transferred() &&
              result.outcomes.size() == kReductionSizes.size();
    for (const auto& outcome : result.outcomes) {
      ok = ok && outcome.verdict == expected &&
           outcome.certificate.method == core::FamilyCertificate::Method::kExplicit;
      layers.add("bisim.index_pairs",
                 static_cast<double>(outcome.certificate.theorem5.in_relation.size()));
    }
    return ok;
  }

 private:
  std::string formula_text_;
  std::unique_ptr<core::RingMutexFamily> family_;
  std::vector<NamedFormula> formulas_;
};

// A workload's decks mix two query kinds; each kind runs on its own part.
class Mix final : public Workload {
 public:
  void add(std::string kind, std::unique_ptr<Workload> part) {
    parts_.emplace_back(std::move(kind), std::move(part));
  }
  void setup() override {
    for (auto& [kind, part] : parts_) part->setup();
  }
  bool query(const Query& q, Layers& layers) override {
    for (auto& [kind, part] : parts_)
      if (kind == q.kind) return part->query(q, layers);
    die("unknown query kind " + q.kind);
  }
  void finish(Layers& layers, double peak_rss_bytes) override {
    for (auto& [kind, part] : parts_) part->finish(layers, peak_rss_bytes);
  }

 private:
  std::vector<std::pair<std::string, std::unique_ptr<Workload>>> parts_;
};

// ---- Generation -----------------------------------------------------------------

void generate(const std::string& workload, const std::string& dir) {
  std::ostringstream table;
  for (const auto& [name, f] : base_formulas()) {
    table << name << '\t' << logic::to_string(f) << '\n';
    table << '!' << name << '\t' << logic::to_string(logic::make_not(f)) << '\n';
  }
  write_file(dir + "/formulas.tsv", table.str());
  for (const auto& f : parse_formula_table(table.str(), /*parse=*/true))
    if (logic::to_string(f.formula) != f.text) die("formula text does not round-trip: " + f.text);

  if (workload == "symbolic") {
    for (const std::uint32_t r : kStoredRings) {
      const auto ring = symbolic::build_symbolic_ring(r);
      static_cast<void>(ring.system->reachable());
      std::ostringstream out;
      symbolic::save_transition_system(*ring.system, out);
      const std::string stem = dir + "/ring" + std::to_string(r);
      write_file(stem + ".blob", out.str());
      write_file(stem + ".props", write_registry(*ring.system->registry()));
    }
  } else if (workload == "explicit") {
    const auto m = ring::RingSystem::build(kExplicitSize);
    write_file(dir + "/m13.kts", kripke::to_text(m.structure()));
  }
}

// ---- Measurement ----------------------------------------------------------------

std::vector<std::vector<Query>> read_plan(const std::string& path) {
  std::vector<std::vector<Query>> decks;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::vector<Query> deck;
    std::string token;
    while (tokens >> token) {
      const auto first = token.find(':');
      const auto second = token.find(':', first + 1);
      if (second == std::string::npos) die("malformed plan token " + token);
      deck.push_back({token.substr(0, first),
                      static_cast<std::uint32_t>(std::stoul(token.substr(first + 1))),
                      token.substr(second + 1)});
    }
    if (!deck.empty()) decks.push_back(std::move(deck));
  }
  if (decks.empty()) die("empty plan");
  return decks;
}

double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0;
  return 0;
}

struct Samples {
  std::vector<double> latency_ms;  // correct queries only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy_ns = 0;  // time inside queries, failed ones included
};

struct Phase {
  Samples plain;
  Samples traced;
};

struct Outcome {
  bool ok = false;
  std::uint64_t ns = 0;
};

// Runs one query under its budget.
Outcome run_query(Workload& workload, const Query& q, Layers& layers) {
  bool ok = false;
  const std::uint64_t t0 = now_ns();
  try {
    rt::ResourceBudget budget(rt::BudgetLimits{kQueryDeadlineNs, 0, 0, 0});
    rt::BudgetScope scope(budget);
    ok = workload.query(q, layers);
  } catch (const std::exception& e) {
    std::cerr << "query " << q.kind << ":" << q.r << ":" << q.formula << " threw: " << e.what()
              << "\n";
  }
  const std::uint64_t ns = now_ns() - t0;
  if (!ok) std::cerr << "query " << q.kind << ":" << q.r << ":" << q.formula << " FAILED\n";
  return {ok, ns};
}

double time_setup(Workload& workload) {
  const std::uint64_t t0 = now_ns();
  workload.setup();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// Runs whole decks until `seconds` have passed (or the plan runs out).  With
// `trace`, odd decks run traced: interleaving the two keeps drift in machine
// speed out of the tracing overhead.  After each deck the setup runs again,
// so setup_s samples the machine across the whole run as the queries do.
Phase run_phase(Workload& workload, const std::vector<std::vector<Query>>& plan,
                double seconds, bool trace, Layers& layers, std::vector<double>& setup_s) {
  Phase phase;
  const std::uint64_t start = now_ns();
  for (std::size_t d = 0; d < plan.size() && now_ns() - start < seconds * 1e9; ++d) {
    const bool traced = trace && d % 2 == 1;
    layers.on = traced;
    obs::set_enabled(traced);
    Samples& samples = traced ? phase.traced : phase.plain;
    for (const Query& q : plan[d]) {
      const Outcome outcome = run_query(workload, q, layers);
      ++samples.attempted;
      samples.busy_ns += outcome.ns;
      if (outcome.ok) samples.latency_ms.push_back(static_cast<double>(outcome.ns) / 1e6);
      else ++samples.failed;
    }
    layers.on = false;
    obs::set_enabled(false);
    setup_s.push_back(time_setup(workload));
  }
  return phase;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The latency at the highest percentile with at least ten queries beyond
// it, and that percentile.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

const char* const kPerLayerSpans[] = {
    "symbolic.encode_ms", "symbolic.reach_ms", "symbolic.count_ms", "store.save_ms",
    "store.load_ms",      "eval.compile_ms",   "eval.eval_ms",      "logic.parse_us",
    "mc.check_ms",        "mc.witness_ms",     "ring.instance_ms",  "mc.base_check_ms",
    "bisim.certify_ms"};

const char* const kPerQueryCounts[] = {
    "store.blob_bytes",   "sym.saturation_sweeps", "bdd.nodes_allocated",
    "bdd.live_nodes_end", "bdd.cache_lookups",     "eval.instructions",
    "eval.fixpoint_iterations", "sym.pre_images",  "kripke.pre_images",
    "bisim.index_pairs",  "eval.op_ns.not",        "eval.op_ns.leaf",
    "eval.op_ns.ex",      "eval.op_ns.eu",         "eval.op_ns.eg",
    "eval.op_ns.and",     "eval.op_ns.or"};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (name.rfind("eval.op_ns.", 0) == 0) return "ns";
  if (ends("_bytes")) return "bytes";
  if (ends("bytes_per_state")) return "B/state";
  return "count";
}

int run(const std::string& name, const std::string& dir, const std::string& plan_path,
        double seconds, bool trace) {
  auto workload = std::make_unique<Mix>();
  if (name == "symbolic") {
    workload->add("sym_reach", std::make_unique<SymReach>());
    workload->add("sym_check", std::make_unique<SymCheck>(dir));
  } else if (name == "explicit") {
    workload->add("explicit_check", std::make_unique<ExplicitCheck>(dir));
    workload->add("reduction", std::make_unique<Reduction>(dir));
  } else {
    die("unknown workload " + name);
  }
  const auto plan = read_plan(plan_path);

  std::vector<double> setup_s{time_setup(*workload)};
  Layers layers;

  // Peak memory: one untimed pass over every query in a fixed order.  The
  // heap a query leaves behind shapes the next query's peak, so a pass in
  // seeded order would move the peak with the seed.
  std::vector<Query> pass = plan.front();
  std::sort(pass.begin(), pass.end(), [](const Query& a, const Query& b) {
    return std::tie(a.kind, a.r, a.formula) < std::tie(b.kind, b.r, b.formula);
  });
  std::uint64_t pass_failed = 0;
  for (const Query& q : pass)
    if (!run_query(*workload, q, layers).ok) ++pass_failed;
  const double rss = peak_rss_bytes();

  const Phase phase = run_phase(*workload, plan, seconds, trace, layers, setup_s);
  const Samples& plain = phase.plain;
  const Samples& traced = phase.traced;
  const std::uint64_t attempted = pass.size() + plain.attempted + traced.attempted;
  const std::uint64_t failed = pass_failed + plain.failed + traced.failed;

  const auto [tail_ms, tail_pct] = tail(plain.latency_ms);
  const double p50 = median(plain.latency_ms);
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"query_p50_ms", "ms", p50},
        {"query_tail_ms", "ms", tail_ms},
        {"queries_per_s", "1/s",
         static_cast<double>(plain.latency_ms.size()) / (static_cast<double>(plain.busy_ns) / 1e9)},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MiB", rss / (1024.0 * 1024.0)},
    };
    std::cout << name << ": " << plain.latency_ms.size() << " queries in "
              << static_cast<double>(plain.busy_ns) / 1e9 << " s; tail is p" << tail_pct << "\n";
  } else {
    workload->finish(layers, rss);
    const double n = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
    const double busy_ms = static_cast<double>(traced.busy_ns) / 1e6;
    const double traced_p50 = median(traced.latency_ms);
    std::cout << name << ": traced " << traced.attempted << " queries, "
              << busy_ms / n << " ms per query\n";
    std::cout << "  layer                    ms/query   share\n";
    for (const char* span : kPerLayerSpans) {
      const double per_query = layers.sum(span) / n;
      const double ms = unit_of(span) == "us" ? per_query / 1e3 : per_query;
      metrics.push_back({span, unit_of(span), per_query});
      if (ms > 0) {
        char row[128];
        std::snprintf(row, sizeof(row), "  %-22s %10.3f  %5.1f%%\n", span, ms,
                      100.0 * ms * n / busy_ms);
        std::cout << row;
      }
    }
    const double unattributed =
        busy_ms > 0 ? 1.0 - static_cast<double>(layers.covered_ns()) / 1e6 / busy_ms : 0;
    char row[128];
    std::snprintf(row, sizeof(row), "  %-22s %10.3f  %5.1f%%\n", "unattributed",
                  unattributed * busy_ms / n, 100.0 * unattributed);
    std::cout << row;
    for (const char* count : kPerQueryCounts)
      metrics.push_back({count, unit_of(count), layers.sum(count) / n});
    const double lookups = layers.sum("bdd.cache_lookups");
    metrics.push_back({"bdd.cache_hit_ratio", "ratio",
                       lookups > 0 ? layers.sum("bdd.cache_hits") / lookups : 0});
    metrics.push_back({"kripke.read_ms", "ms", layers.sum("kripke.read_ms")});
    metrics.push_back(
        {"kripke.bytes_per_state", "B/state", layers.sum("kripke.bytes_per_state")});
    metrics.push_back({"unattributed_share", "ratio", unattributed});
    metrics.push_back({"trace.overhead_ms", "ms", traced_p50 - p50});
    metrics.push_back(
        {"trace.overhead_share", "ratio", p50 > 0 ? (traced_p50 - p50) / p50 : 0});
    metrics.push_back({"query_tail_pct", "%", tail_pct});
    metrics.push_back({"failed_share", "ratio",
                       static_cast<double>(failed) / static_cast<double>(attempted)});
    std::cout << "  tracing overhead: p50 " << p50 << " ms untraced, " << traced_p50
              << " ms traced\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "gen") {
      generate(args[1], args[2]);
      return 0;
    }
    if (args.size() == 6 && args[0] == "run")
      return run(args[1], args[2], args[3], std::stod(args[4]), args[5] == "1");
  } catch (const std::exception& e) {
    die(e.what());
  }
  std::cerr << "usage: ictlbench gen <workload> <dir>\n"
               "       ictlbench run <workload> <dir> <plan> <seconds> <trace 0|1>\n";
  return 2;
}
