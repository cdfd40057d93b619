#include "symbolic/bdd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "obs/obs.hpp"
#include "rt/budget.hpp"

namespace ictl::symbolic {

namespace {

constexpr Bdd kNoNode = 0xffffffffu;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer — cheap, well-distributed for small integer keys.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t pair_hash(Bdd low, Bdd high) {
  return mix((static_cast<std::uint64_t>(low) << 32) ^ high);
}

/// Whether sifting may move every (2k, 2k+1) variable pair as one block:
/// an even variable count, each pair on adjacent levels, unprimed on top.
bool sifts_in_pairs(const BddManager& mgr) {
  return mgr.num_vars() % 2 == 0 && mgr.pairs_adjacent(mgr.num_vars() / 2);
}

constexpr const char* kNotInPairs =
    ": sifting moves (2k, 2k+1) variable pairs as blocks, so it needs an even "
    "variable count and each pair on adjacent levels (unprimed above primed)";

constexpr const char* kSatCountOverflow =
    "SatCount: sum overflows the 128-bit mantissa";

/// Shifts the two-limb mantissa left by d bits; throws when set bits would
/// fall off the top.  (Two u64 limbs instead of __int128: -Wpedantic.)
void shift_left_128(std::uint64_t& hi, std::uint64_t& lo, std::int64_t d) {
  if ((hi == 0 && lo == 0) || d == 0) return;
  support::require<Error>(d < 128, kSatCountOverflow);
  if (d >= 64) {
    support::require<Error>(
        hi == 0 && (d == 64 || (lo >> (128 - d)) == 0), kSatCountOverflow);
    hi = d == 64 ? lo : lo << (d - 64);
    lo = 0;
  } else {
    support::require<Error>((hi >> (64 - d)) == 0, kSatCountOverflow);
    hi = (hi << d) | (lo >> (64 - d));
    lo <<= d;
  }
}

/// Restores the normal form: mantissa odd (trailing zeros folded into the
/// exponent), zero represented as {0, 0, 0}.
void normalize(SatCount& c) {
  if (c.hi == 0 && c.lo == 0) {
    c.exponent = 0;
    return;
  }
  int tz = c.lo == 0 ? 64 + std::countr_zero(c.hi) : std::countr_zero(c.lo);
  c.exponent += tz;
  if (tz >= 64) {
    c.lo = c.hi;
    c.hi = 0;
    tz -= 64;
  }
  if (tz > 0) {
    c.lo = (c.lo >> tz) | (c.hi << (64 - tz));
    c.hi >>= tz;
  }
}

}  // namespace

// ---- SatCount ---------------------------------------------------------------

SatCount SatCount::make(std::uint64_t value, std::int32_t exp) {
  SatCount c{0, value, exp};
  normalize(c);
  return c;
}

double SatCount::to_double() const {
  return std::ldexp(static_cast<double>(hi), exponent + 64) +
         std::ldexp(static_cast<double>(lo), exponent);
}

std::string SatCount::to_decimal_string() const {
  support::require<Error>(exponent >= 0,
                          "SatCount::to_decimal_string: negative exponent "
                          "(the count is not an integer)");
  std::vector<std::uint8_t> digits{0};  // little-endian base 10
  const auto double_and_add = [&](unsigned bit) {
    unsigned carry = bit;
    for (std::uint8_t& d : digits) {
      const unsigned v = 2u * d + carry;
      d = static_cast<std::uint8_t>(v % 10);
      carry = v / 10;
    }
    while (carry != 0) {
      digits.push_back(static_cast<std::uint8_t>(carry % 10));
      carry /= 10;
    }
  };
  for (int i = 127; i >= 0; --i)
    double_and_add(i >= 64 ? (hi >> (i - 64)) & 1u
                           : static_cast<unsigned>((lo >> i) & 1u));
  for (std::int32_t i = 0; i < exponent; ++i) double_and_add(0);
  std::string out;
  out.reserve(digits.size());
  for (auto it = digits.rbegin(); it != digits.rend(); ++it)
    out.push_back(static_cast<char>('0' + *it));
  const auto first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

SatCount& SatCount::operator+=(const SatCount& other) {
  if (other.is_zero()) return *this;
  if (is_zero()) {
    *this = other;
    return *this;
  }
  SatCount a = *this;
  SatCount b = other;
  if (a.exponent > b.exponent) std::swap(a, b);
  shift_left_128(b.hi, b.lo,
                 static_cast<std::int64_t>(b.exponent) - a.exponent);
  const std::uint64_t lo = a.lo + b.lo;
  const std::uint64_t carry = lo < a.lo ? 1u : 0u;
  std::uint64_t hi = a.hi + b.hi;
  bool overflow = hi < a.hi;
  hi += carry;
  overflow = overflow || (carry != 0 && hi == 0);
  support::require<Error>(!overflow, kSatCountOverflow);
  *this = SatCount{hi, lo, a.exponent};
  normalize(*this);
  return *this;
}

// ---- BddManager -------------------------------------------------------------

BddManager::BddManager(std::uint32_t num_vars) : num_vars_(num_vars) {
  nodes_.push_back({kTerminalVar, kBddFalse, kBddFalse, kNoNode});  // 0 = false
  nodes_.push_back({kTerminalVar, kBddTrue, kBddTrue, kNoNode});    // 1 = true
  ref_.assign(2, 0);
  ext_ref_.assign(2, 0);
  retired_.assign(2, 0);
  queued_dead_.assign(2, 0);
  stats_.peak_nodes = nodes_.size();
  subtables_.resize(num_vars_);
  for (SubTable& t : subtables_) t.buckets.assign(16, kNoNode);
  var2level_.resize(num_vars_);
  level2var_.resize(num_vars_);
  std::iota(var2level_.begin(), var2level_.end(), 0u);
  std::iota(level2var_.begin(), level2var_.end(), 0u);
  var_live_count_.assign(num_vars_, 0);
}

std::uint32_t BddManager::new_var() {
  const std::uint32_t v = num_vars_++;
  subtables_.emplace_back();
  subtables_.back().buckets.assign(16, kNoNode);
  var2level_.push_back(v);  // appended at the bottom of the order
  level2var_.push_back(v);
  var_live_count_.push_back(0);
  return v;
}

std::uint32_t BddManager::level_of_var(std::uint32_t v) const {
  ICTL_ASSERT(v < num_vars_);
  return var2level_[v];
}

std::uint32_t BddManager::var_at_level(std::uint32_t l) const {
  ICTL_ASSERT(l < num_vars_);
  return level2var_[l];
}

bool BddManager::pairs_adjacent(std::uint32_t num_pairs) const {
  ICTL_ASSERT(num_pairs <= num_vars_ / 2);
  for (std::uint32_t v = 0; v < 2 * num_pairs; v += 2)
    if (var2level_[v + 1] != var2level_[v] + 1) return false;
  return true;
}

void BddManager::set_initial_order(const std::vector<std::uint32_t>& level2var) {
  support::require<Error>(nodes_.size() == 2,
                          "BddManager::set_initial_order: manager already holds nodes; "
                          "use swap_adjacent_levels / reorder_now instead");
  support::require<Error>(level2var.size() == num_vars_,
                          "BddManager::set_initial_order: order size != num_vars");
  std::vector<bool> seen(num_vars_, false);
  for (const std::uint32_t v : level2var) {
    support::require<Error>(v < num_vars_ && !seen[v],
                            "BddManager::set_initial_order: not a permutation");
    seen[v] = true;
  }
  level2var_ = level2var;
  for (std::uint32_t l = 0; l < num_vars_; ++l) var2level_[level2var_[l]] = l;
}

// ---- Liveness ---------------------------------------------------------------

void BddManager::make_live_ref(Bdd f) {
  if (is_terminal(f)) return;
  if (queued_dead_[f] != 0) {
    // A released root whose teardown is still queued: its counts (and its
    // cone's) were never torn down, so reviving is just clearing the flag.
    queued_dead_[f] = 0;
    --queued_dead_count_;
    ++ref_[f];
    return;
  }
  const bool was_dead = ref_[f] == 0 && ext_ref_[f] == 0;
  ++ref_[f];
  if (was_dead) {
    ++var_live_count_[nodes_[f].var];
    ++live_nodes_;
    make_live_ref(nodes_[f].low);
    make_live_ref(nodes_[f].high);
  }
}

void BddManager::drop_ref(Bdd f) {
  if (is_terminal(f)) return;
  ICTL_ASSERT(ref_[f] > 0);
  --ref_[f];
  if (ref_[f] == 0 && ext_ref_[f] == 0) {
    --var_live_count_[nodes_[f].var];
    --live_nodes_;
    drop_ref(nodes_[f].low);
    drop_ref(nodes_[f].high);
  }
}

void BddManager::protect(Bdd f) {
  if (is_terminal(f)) return;
  ICTL_ASSERT(f < nodes_.size());
  // Hard error in every build type: reviving a retired slot would re-root a
  // node the unique tables no longer know, breaking canonicity the next
  // time the same triple is built.
  support::require<Error>(retired_[f] == 0,
                          "BddManager::protect: handle was retired by garbage "
                          "collection or reordering; root results in a BddRef "
                          "before they can be collected");
  if (queued_dead_[f] != 0) {  // re-rooted before its teardown ran: O(1)
    queued_dead_[f] = 0;
    --queued_dead_count_;
    ++ext_ref_[f];
    return;
  }
  const bool was_dead = ext_ref_[f] == 0 && ref_[f] == 0;
  ++ext_ref_[f];
  if (was_dead) {
    ++var_live_count_[nodes_[f].var];
    ++live_nodes_;
    make_live_ref(nodes_[f].low);
    make_live_ref(nodes_[f].high);
  }
}

void BddManager::release(Bdd f) noexcept {
  if (is_terminal(f)) return;
  ICTL_ASSERT(f < nodes_.size());
  ICTL_ASSERT(ext_ref_[f] > 0);
  --ext_ref_[f];
  if (ext_ref_[f] == 0 && ref_[f] == 0) {
    // Defer the O(cone) teardown: fixpoint loops re-root a near-identical
    // cone on the very next operation, which then costs an O(1) flag clear
    // instead of a kill-walk followed by a revive-walk.
    queued_dead_[f] = 1;
    ++queued_dead_count_;
    dead_queue_.push_back(f);
    // Bound the queue so churn-heavy loops that never sweep can't grow it
    // past the node table itself.
    if (dead_queue_.size() > nodes_.size() / 4 + 1024) flush_dead_queue();
  }
}

std::uint32_t BddManager::external_refs(Bdd f) const {
  if (is_terminal(f)) return 0;
  ICTL_ASSERT(f < nodes_.size());
  return ext_ref_[f];
}

bool BddManager::is_retired(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  return retired_[f] != 0;
}

// ---- Node construction ------------------------------------------------------

BddRef BddManager::var(std::uint32_t v) {
  ICTL_ASSERT(v < num_vars_);
  BddRef result(*this, mk(v, kBddFalse, kBddTrue));
  run_deferred_maintenance();
  return result;
}

BddRef BddManager::nvar(std::uint32_t v) {
  ICTL_ASSERT(v < num_vars_);
  BddRef result(*this, mk(v, kBddTrue, kBddFalse));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::make_node(std::uint32_t v, Bdd low, Bdd high) {
  ICTL_ASSERT(low < nodes_.size() && high < nodes_.size());
  return mk(v, low, high);
}

void BddManager::make_nodes(const std::vector<std::array<std::uint32_t, 3>>& records,
                            std::vector<Bdd>& handles) {
  // Everything that allocates runs first — each variable's subtable sized
  // for its records, the node arrays for all of them — so the fill below
  // cannot fail halfway: it is mk's lookup-or-insert writing through raw
  // pointers instead of five appends and a growth check per node.
  std::vector<std::size_t> per_var(num_vars_, 0);
  for (const auto& record : records) {
    ICTL_ASSERT(record[0] < num_vars_);
    ++per_var[record[0]];
  }
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    SubTable& t = subtables_[v];
    std::size_t buckets = t.buckets.size();
    while (buckets < t.count + per_var[v]) buckets *= 2;
    if (buckets != t.buckets.size()) rehash_subtable(t, buckets);
  }
  const std::size_t first = nodes_.size();
  const std::size_t size = first + records.size();
  handles.reserve(handles.size() + records.size());
  nodes_.reserve(size);
  ref_.reserve(size);
  ext_ref_.reserve(size);
  retired_.reserve(size);
  queued_dead_.reserve(size);
  nodes_.resize(size);
  Node* const nodes = nodes_.data();
  std::size_t next = first;
  for (const auto& [v, low_at, high_at] : records) {
    ICTL_ASSERT(low_at < handles.size() && high_at < handles.size());
    const Bdd low = handles[low_at];
    const Bdd high = handles[high_at];
    ICTL_ASSERT(low < next && high < next);
    if (low == high) {  // reduction rule
      handles.push_back(low);
      continue;
    }
    ICTL_ASSERT(var2level_[v] < level(low) && var2level_[v] < level(high));
    SubTable& t = subtables_[v];
    Bdd& head = t.buckets[pair_hash(low, high) & (t.buckets.size() - 1)];
    Bdd id = head;
    while (id != kNoNode && (nodes[id].low != low || nodes[id].high != high))
      id = nodes[id].next;
    if (id == kNoNode) {
      ++stats_.unique_misses;
      id = static_cast<Bdd>(next++);
      nodes[id] = {v, low, high, head};
      head = id;
      ++t.count;
    } else {
      ++stats_.unique_hits;
    }
    handles.push_back(id);
  }
  nodes_.resize(next);
  ref_.resize(next, 0);  // born dead, as in mk
  ext_ref_.resize(next, 0);
  retired_.resize(next, 0);
  queued_dead_.resize(next, 0);
  note_growth();
}

Bdd BddManager::mk(std::uint32_t v, Bdd low, Bdd high) {
  if (low == high) return low;  // reduction rule
  ICTL_ASSERT(v < num_vars_);
  ICTL_ASSERT(var2level_[v] < level(low) && var2level_[v] < level(high));
  SubTable& t = subtables_[v];
  const std::size_t slot =
      static_cast<std::size_t>(pair_hash(low, high)) & (t.buckets.size() - 1);
  for (Bdd id = t.buckets[slot]; id != kNoNode; id = nodes_[id].next) {
    const Node& n = nodes_[id];
    if (n.low == low && n.high == high) {
      ++stats_.unique_hits;
      return id;
    }
  }
  ++stats_.unique_misses;
  const Bdd id = static_cast<Bdd>(nodes_.size());
  nodes_.push_back({v, low, high, t.buckets[slot]});
  ref_.push_back(0);  // born dead; protect()/make_live_ref revive it
  ext_ref_.push_back(0);
  retired_.push_back(0);
  queued_dead_.push_back(0);
  t.buckets[slot] = id;
  if (++t.count > t.buckets.size()) grow_subtable(t);
  note_growth();
  return id;
}

void BddManager::note_growth() {
  if (nodes_.size() > stats_.peak_nodes) stats_.peak_nodes = nodes_.size();
  // Only FLAG maintenance here — mk() runs deep inside the operator
  // recursions, where reordering or a sweep would corrupt in-flight
  // cofactors.  The public entry points run it after rooting their result.
  if (reorder_threshold_ != 0 && !in_reorder_ && nodes_.size() >= reorder_threshold_)
    reorder_pending_ = true;
  // live_nodes_ still counts queued (released-but-unflushed) roots, which
  // would let churn garbage inflate its own trigger threshold; subtract the
  // exact zombie count so the comparison sees the true live set.
  if (gc_enabled_ && !in_reorder_ &&
      nodes_.size() - nodes_at_last_collect_ >
          live_nodes_ - queued_dead_count_ + gc_slack_)
    gc_pending_ = true;
}

void BddManager::insert_unique(std::uint32_t v, Bdd id) {
  SubTable& t = subtables_[v];
  const Node& n = nodes_[id];
  const std::size_t slot =
      static_cast<std::size_t>(pair_hash(n.low, n.high)) & (t.buckets.size() - 1);
  nodes_[id].next = t.buckets[slot];
  t.buckets[slot] = id;
  if (++t.count > t.buckets.size()) grow_subtable(t);
}

void BddManager::grow_subtable(SubTable& t) {
  ICTL_COUNT("bdd", "subtable_grows");
  rehash_subtable(t, t.buckets.size() * 2);
}

void BddManager::rehash_subtable(SubTable& t, std::size_t new_buckets) {
  std::vector<Bdd> ids;
  ids.reserve(t.count);
  for (const Bdd head : t.buckets)
    for (Bdd id = head; id != kNoNode; id = nodes_[id].next) ids.push_back(id);
  t.buckets.assign(new_buckets, kNoNode);
  for (const Bdd id : ids) {
    const Node& n = nodes_[id];
    const std::size_t slot =
        static_cast<std::size_t>(pair_hash(n.low, n.high)) & (t.buckets.size() - 1);
    nodes_[id].next = t.buckets[slot];
    t.buckets[slot] = id;
  }
}

void BddManager::run_deferred_maintenance() {
  fire_pending_reorder();
  if (gc_pending_ && !in_reorder_ && protect_scope_depth_ == 0) {
    gc_pending_ = false;
    garbage_collect();
  }
  enforce_node_budget();
}

void BddManager::enforce_node_budget() {
  rt::ResourceBudget* budget = rt::current_budget();
  if (budget == nullptr || budget->node_cap() == 0) return;
  // Inside a scope neither GC nor sifting may run; the cap is re-checked
  // at the next maintenance point outside, exactly like a deferred sweep.
  if (in_reorder_ || protect_scope_depth_ > 0) return;
  const std::size_t cap = budget->node_cap();
  if (live_nodes_ - queued_dead_count_ <= cap) return;
  // Ladder step 1: reclaim garbage.
  ICTL_COUNT("bdd", "node_budget_gcs");
  garbage_collect();
  if (live_nodes_ <= cap) return;
  // Ladder step 2: forced sifting shrinks the live set itself.  An order
  // reorder_now would reject (a pair apart, or an odd variable count) is
  // not sifted: the trip below is the typed error, not the sift's.
  if (sifts_in_pairs(*this)) {
    ICTL_COUNT("bdd", "node_budget_sifts");
    reorder_now();
    if (live_nodes_ <= cap) return;
  }
  // Ladder step 3: nothing left to shed.  The throw happens here, at the
  // maintenance point — every result of the public op that triggered it is
  // already rooted, so unwinding leaves the manager consistent.
  budget->trip(BudgetKind::kNodes, "bdd/node_cap");
}

void BddManager::fire_pending_reorder() {
  if (!reorder_pending_ || in_reorder_ || protect_scope_depth_ > 0) return;
  reorder_pending_ = false;
  ++stats_.reorder_hook_calls;
  // Double the threshold before sifting: a sift that throws (a pair
  // separated since arming) or grows the table re-fires only after genuine
  // further growth.
  while (reorder_threshold_ <= nodes_.size()) reorder_threshold_ *= 2;
  reorder_now();
}

void BddManager::enable_dynamic_reordering(std::size_t threshold) {
  // Fail fast at the misconfigured call: without this, the pair-grouping
  // requirements would only surface as a throw from whichever unrelated
  // public operation happens to cross the growth threshold later.
  support::require<Error>(sifts_in_pairs(*this),
                          std::string("BddManager::enable_dynamic_reordering") + kNotInPairs);
  reorder_threshold_ = std::max(threshold, 2 * nodes_.size());
  reorder_pending_ = false;
}

// ---- Garbage collection -----------------------------------------------------

void BddManager::enable_auto_gc(std::size_t slack) {
  gc_enabled_ = true;
  gc_slack_ = slack;
}

std::size_t BddManager::garbage_collect() {
  if (in_reorder_ || protect_scope_depth_ > 0) {
    gc_pending_ = true;  // deferred: runs when the scope closes
    return 0;
  }
  // The checkpoint sits below the deferral guard and above the first
  // mutation: a throw here proves unwinding through every caller of a
  // (possibly auto-triggered) sweep leaves the manager untouched.
  rt::checkpoint("bdd/gc");
  // The span sits below the deferral guard: a deferred GC did no work and
  // must not pollute the gc_sweep timing distribution.
  ICTL_PROFILE("bdd", "gc_sweep");
  const std::size_t retired = collect_dead_nodes();
  ICTL_SPAN_ARG("retired", retired);
  ++stats_.gc_runs;
  stats_.gc_retired += retired;
  if (retired == 0) return 0;
  // Compact subtables the sweep emptied out: a bucket array sized for the
  // peak keeps costing cache misses on every mk() probe.
  for (SubTable& t : subtables_)
    if (t.buckets.size() > 16 && t.count * 4 < t.buckets.size()) {
      std::size_t target = 16;
      while (target < 2 * t.count) target *= 2;
      rehash_subtable(t, target);
    }
  // Cache entries may hold retired operands or results; a post-sweep hit on
  // one would hand out a zombie.  Invalidate — the one choke point.
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "garbage_collect");
#endif
  return retired;
}

// ---- Computed table ---------------------------------------------------------

namespace {

// The computed table's sizing policy (ensure_cache): the least power of two
// with at least one entry per kSlotsPerCacheEntry node slots, within
// [kCacheFloor, kCacheCap].  A cold query's manager holds about 2k-50k
// slots, so it gets 4k-16k entries (96-384 KB of 24-byte entries) that
// stay in a per-core L2, where the fixed 2^18-entry table (6.3 MB) made
// most first touches a miss to memory.  Measured on traced perfbench
// `symbolic` runs (same seed, 25 s each, per query): this policy cut
// eval.eval_ms 0.58 -> 0.50 and symbolic.reach_ms 0.35 -> 0.29; one entry
// per one or two slots was slower (the larger tables' misses again), a
// floor of 2^11 made 18% more lookups than the fixed table (its evictions
// cost recomputation), and a floor of 2^13 was no faster.  The cap is the
// old fixed size, so no manager gets more than it did.
constexpr std::size_t kSlotsPerCacheEntry = 4;
constexpr std::size_t kCacheFloor = std::size_t{1} << 12;
constexpr std::size_t kCacheCap = std::size_t{1} << 18;

}  // namespace

void BddManager::ensure_cache() {
  const std::size_t wanted = std::clamp(
      std::bit_ceil((nodes_.size() + kSlotsPerCacheEntry - 1) / kSlotsPerCacheEntry),
      kCacheFloor, kCacheCap);
  if (cache_.size() >= wanted) return;
  // Drop the old table before allocating the new one, so the two never
  // coexist.  Every new entry is empty.
  std::vector<CacheEntry>().swap(cache_);
  cache_.resize(wanted);
  cache_set_mask_ = wanted / 2 - 1;
  stats_.cache_entries = wanted;
}

std::size_t BddManager::cache_set(Op op, Bdd a, Bdd b, Bdd c) const {
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(a) << 32) ^ (static_cast<std::uint64_t>(b) << 8) ^
          (static_cast<std::uint64_t>(c) << 2) ^ static_cast<std::uint64_t>(op));
  return (static_cast<std::size_t>(h) & cache_set_mask_) * 2;
}

bool BddManager::cache_lookup(Op op, Bdd a, Bdd b, Bdd c, Bdd& out) {
  const std::size_t base = cache_set(op, a, b, c);
  for (std::size_t i = base; i < base + 2; ++i) {
    CacheEntry& e = cache_[i];
    if (e.op == op && e.a == a && e.b == b && e.c == c) {
      ++stats_.cache_hits;
      e.used = ++cache_tick_;
      out = e.result;
      return true;
    }
  }
  ++stats_.cache_misses;
  return false;
}

void BddManager::cache_store(Op op, Bdd a, Bdd b, Bdd c, Bdd result) {
  const std::size_t base = cache_set(op, a, b, c);
  // 2-way with aging: fill an empty way first, else evict the one whose
  // last use is older.
  std::size_t victim = base;
  if (cache_[base].op != Op::kNone) {
    if (cache_[base + 1].op == Op::kNone || cache_[base + 1].used < cache_[base].used)
      victim = base + 1;
  }
  if (cache_[victim].op != Op::kNone) ++stats_.cache_evictions;
  cache_[victim] = CacheEntry{op, a, b, c, result, ++cache_tick_};
}

void BddManager::invalidate_operation_caches() {
  // The one choke point for cache invalidation: everything keyed on node
  // identity across calls — the computed table and the rename memo — is
  // invalidated here, and every order-changing or node-retiring path calls
  // this.  With scoped lifetimes this is load-bearing, not
  // defense-in-depth: a retired handle must never come back out of a cache.
  // The table is sized to the manager (ensure_cache), so a clear costs at
  // most its 2^18 entries, once per sweep, sift pass or adjacent swap.
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  ++rename_epoch_;
  ++stats_.cache_invalidations;
}

// ---- ITE and the boolean operators -----------------------------------------

BddRef BddManager::ite(Bdd f, Bdd g, Bdd h) {
  ICTL_ASSERT(f < nodes_.size() && g < nodes_.size() && h < nodes_.size());
  ensure_cache();
  // Root the result BEFORE any deferred reorder/sweep runs: un-rooted, it
  // would be exactly the kind of garbage those passes retire.
  BddRef result(*this, ite_rec(f, g, h));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::ite_rec(Bdd f, Bdd g, Bdd h) {
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  Bdd cached;
  if (cache_lookup(Op::kIte, f, g, h, cached)) return cached;

  const std::uint32_t top = std::min({level(f), level(g), level(h)});
  const auto cofactor = [&](Bdd x, bool hi) {
    return level(x) == top ? (hi ? nodes_[x].high : nodes_[x].low) : x;
  };
  const Bdd lo = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const Bdd hi = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const Bdd result = mk(level2var_[top], lo, hi);
  cache_store(Op::kIte, f, g, h, result);
  return result;
}

BddRef BddManager::bdd_not(Bdd f) { return ite(f, kBddFalse, kBddTrue); }
BddRef BddManager::bdd_and(Bdd f, Bdd g) { return ite(f, g, kBddFalse); }
BddRef BddManager::bdd_or(Bdd f, Bdd g) { return ite(f, kBddTrue, g); }
BddRef BddManager::bdd_xor(Bdd f, Bdd g) { return ite(f, bdd_not(g), g); }
BddRef BddManager::bdd_iff(Bdd f, Bdd g) { return ite(f, g, bdd_not(g)); }
BddRef BddManager::bdd_diff(Bdd f, Bdd g) { return ite(g, kBddFalse, f); }

// ---- N-ary disjunction ------------------------------------------------------

/// One or_all call's working state.  A key is (care, terms...): the care
/// set, then the sorted distinct live terms.  Raw handles throughout, valid
/// for the call: its recursion runs no maintenance.
struct BddManager::OrAllMemo {
  struct Entry {
    std::uint64_t hash;
    std::size_t at;     // the key's offset in `keys`
    std::uint32_t len;  // the key's length: 1 + the number of terms
    Bdd result;         // ictl-lint: allow(raw-bdd-member)
  };
  // ictl-lint: allow(raw-bdd-member)
  std::vector<Bdd> keys;  // every entry's key, back to back
  std::vector<Entry> entries;
  std::vector<std::uint32_t> slots;  // open addressing: 1 + entry index, 0 empty
  // ictl-lint: allow(raw-bdd-member)
  std::vector<Bdd> stack;  // the term lists of the calls in flight
  std::uint64_t misses = 0;

  [[nodiscard]] std::uint64_t hash(Bdd care, std::size_t at, std::size_t len) const {
    std::uint64_t h = care;
    for (std::size_t i = at; i < at + len; ++i) h = (h ^ stack[i]) * 0x100000001b3ULL;
    return mix(h ^ (std::uint64_t{len} << 32));
  }

  /// The entry for (care, stack[at, at + len)), or nullptr.
  [[nodiscard]] const Entry* find(std::uint64_t h, Bdd care, std::size_t at,
                                  std::size_t len) const {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t s = h & mask; slots[s] != 0; s = (s + 1) & mask) {
      const Entry& e = entries[slots[s] - 1];
      if (e.hash == h && e.len == len + 1 && keys[e.at] == care &&
          std::equal(stack.begin() + static_cast<std::ptrdiff_t>(at),
                     stack.begin() + static_cast<std::ptrdiff_t>(at + len),
                     keys.begin() + static_cast<std::ptrdiff_t>(e.at + 1)))
        return &e;
    }
    return nullptr;
  }

  void insert(std::uint64_t h, Bdd care, std::size_t at, std::size_t len, Bdd result) {
    if (2 * (entries.size() + 1) > slots.size()) {
      slots.assign(2 * slots.size(), 0);
      for (std::uint32_t i = 0; i < entries.size(); ++i) place(entries[i].hash, i);
    }
    entries.push_back({h, keys.size(), static_cast<std::uint32_t>(len + 1), result});
    keys.push_back(care);
    keys.insert(keys.end(), stack.begin() + static_cast<std::ptrdiff_t>(at),
                stack.begin() + static_cast<std::ptrdiff_t>(at + len));
    place(h, static_cast<std::uint32_t>(entries.size() - 1));
  }

  void place(std::uint64_t h, std::uint32_t index) {
    const std::size_t mask = slots.size() - 1;
    std::size_t s = h & mask;
    while (slots[s] != 0) s = (s + 1) & mask;
    slots[s] = index + 1;
  }
};

BddRef BddManager::or_all(std::span<const Bdd> terms, Bdd care) {
  ICTL_PROFILE_ARG("bdd", "or_all", "terms", terms.size());
  ICTL_ASSERT(care < nodes_.size());
  OrAllMemo memo;
  memo.slots.assign(64, 0);
  Bdd result = kBddFalse;
  if (std::find(terms.begin(), terms.end(), kBddTrue) != terms.end()) {
    result = care;
  } else {
    for (const Bdd t : terms) {
      ICTL_ASSERT(t < nodes_.size());
      if (t != kBddFalse) memo.stack.push_back(t);
    }
    std::sort(memo.stack.begin(), memo.stack.end());
    memo.stack.erase(std::unique(memo.stack.begin(), memo.stack.end()), memo.stack.end());
    result = or_all_rec(memo, care, 0, memo.stack.size());
  }
  ICTL_SPAN_ARG("misses", memo.misses);
  BddRef ref(*this, result);
  run_deferred_maintenance();
  return ref;
}

Bdd BddManager::or_all_rec(OrAllMemo& memo, Bdd care, std::size_t at, std::size_t len) {
  if (care == kBddFalse || len == 0) return kBddFalse;
  if (len == 1 && care == kBddTrue) return memo.stack[at];

  const std::uint64_t h = memo.hash(care, at, len);
  if (const OrAllMemo::Entry* e = memo.find(h, care, at, len)) return e->result;
  if ((++memo.misses & 0xfff) == 0) rt::checkpoint("bdd/or_all");

  std::uint32_t top = level(care);
  for (std::size_t i = at; i < at + len; ++i) top = std::min(top, level(memo.stack[i]));
  const std::uint32_t var = level2var_[top];
  const Bdd lo = or_all_branch(memo, care, at, len, var, false);
  const Bdd hi = or_all_branch(memo, care, at, len, var, true);
  const Bdd result = mk(var, lo, hi);
  memo.insert(h, care, at, len, result);
  return result;
}

Bdd BddManager::or_all_branch(OrAllMemo& memo, Bdd care, std::size_t at, std::size_t len,
                              std::uint32_t var, bool high) {
  const auto cofactor = [&](Bdd x) {
    const Node& n = nodes_[x];  // a terminal's kTerminalVar is no variable
    return n.var == var ? (high ? n.high : n.low) : x;
  };
  const Bdd c = cofactor(care);
  if (c == kBddFalse) return kBddFalse;
  // The branch's list goes on top of the stack (indices, not iterators:
  // pushing may reallocate it) and comes off again once its call returns.
  const std::size_t out = memo.stack.size();
  for (std::size_t i = at; i < at + len; ++i) {
    const Bdd t = cofactor(memo.stack[i]);
    if (t == kBddTrue) {  // one term covers the branch: what is left is care
      memo.stack.resize(out);
      return c;
    }
    if (t != kBddFalse) memo.stack.push_back(t);
  }
  const auto first = memo.stack.begin() + static_cast<std::ptrdiff_t>(out);
  std::sort(first, memo.stack.end());
  memo.stack.erase(std::unique(first, memo.stack.end()), memo.stack.end());
  const Bdd result = or_all_rec(memo, c, out, memo.stack.size() - out);
  memo.stack.resize(out);
  return result;
}

// ---- Quantification ---------------------------------------------------------

BddRef BddManager::cube(const std::vector<std::uint32_t>& vars) {
  std::vector<std::uint32_t> sorted = vars;
  // Bottom-up by the CURRENT order: deepest level first.
  std::sort(sorted.begin(), sorted.end(), [&](std::uint32_t a, std::uint32_t b) {
    return var2level_[a] > var2level_[b];
  });
  Bdd acc = kBddTrue;
  for (const std::uint32_t v : sorted) acc = mk(v, kBddFalse, acc);
  BddRef result(*this, acc);
  run_deferred_maintenance();
  return result;
}

BddRef BddManager::and_exists(Bdd f, Bdd g, Bdd cube) {
  ICTL_ASSERT(f < nodes_.size() && g < nodes_.size() && cube < nodes_.size());
  ensure_cache();
  BddRef result(*this, and_exists_rec(f, g, cube));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::and_exists_rec(Bdd f, Bdd g, Bdd cube) {
  if (f == kBddFalse || g == kBddFalse) return kBddFalse;
  if (f == g) g = kBddTrue;
  // Conjunction is commutative: a canonical key, and kBddTrue, the least
  // handle left, ends up in f.
  if (f > g) std::swap(f, g);

  // Quantified variables above both tops are vacuous; once the cube runs
  // out, what remains is the plain conjunction.
  const std::uint32_t top = std::min(level(f), level(g));
  while (cube != kBddTrue && level(cube) < top) cube = nodes_[cube].high;
  if (cube == kBddTrue) return ite_rec(f, g, kBddFalse);

  Bdd cached;
  if (cache_lookup(Op::kAndExists, f, g, cube, cached)) return cached;

  const auto cofactor = [&](Bdd x, bool hi) {
    return level(x) == top ? (hi ? nodes_[x].high : nodes_[x].low) : x;
  };
  Bdd result;
  if (level(cube) == top) {
    const Bdd rest = nodes_[cube].high;
    const Bdd lo = and_exists_rec(cofactor(f, false), cofactor(g, false), rest);
    // ite_rec, not the public bdd_or — same mid-recursion maintenance hazard.
    result = lo == kBddTrue
                 ? kBddTrue
                 : ite_rec(lo, kBddTrue,
                           and_exists_rec(cofactor(f, true), cofactor(g, true), rest));
  } else {
    result = mk(level2var_[top],
                and_exists_rec(cofactor(f, false), cofactor(g, false), cube),
                and_exists_rec(cofactor(f, true), cofactor(g, true), cube));
  }
  cache_store(Op::kAndExists, f, g, cube, result);
  return result;
}

BddRef BddManager::pair_pre_image(Bdd relation, Bdd set) {
  ICTL_ASSERT(relation < nodes_.size() && set < nodes_.size());
  ensure_cache();
  BddRef result(*this, pair_pre_image_rec(relation, set));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::pair_pre_image_rec(Bdd r, Bdd s) {
  if (r == kBddFalse || s == kBddFalse) return kBddFalse;
  if (r == kBddTrue) return kBddTrue;  // s is satisfiable: some x' lies in it

  Bdd cached;
  if (cache_lookup(Op::kPairPreImage, r, s, 0, cached)) return cached;

  // The top pair either operand mentions, named by its unprimed variable x.
  // Both operands' top pairs are checked: only adjacent pairs make the
  // higher of the two the top of both.
  const auto top_pair = [&](Bdd f) {
    const std::uint32_t v = nodes_[f].var & ~1u;
    support::require<Error>(v + 1 < num_vars_ && var2level_[v + 1] == var2level_[v] + 1,
                            "BddManager::pair_pre_image: a (2v, 2v+1) pair is not on "
                            "adjacent levels with the unprimed variable on top");
    return v;
  };
  std::uint32_t x = top_pair(r);
  if (!is_terminal(s)) {
    support::require<Error>(nodes_[s].var % 2 == 0,
                            "BddManager::pair_pre_image: the set mentions a primed variable");
    const std::uint32_t xs = top_pair(s);
    if (var2level_[xs] < var2level_[x]) x = xs;
  }
  const auto cofactor = [&](Bdd f, std::uint32_t v, bool hi) {
    return !is_terminal(f) && nodes_[f].var == v ? (hi ? nodes_[f].high : nodes_[f].low)
                                                 : f;
  };
  const Bdd s0 = cofactor(s, x, false);
  const Bdd s1 = cofactor(s, x, true);
  // Row r_a = r|x=a: the states x = a with a successor x' = b in s|x=b.
  const auto row = [&](Bdd ra) {
    const Bdd lo = pair_pre_image_rec(cofactor(ra, x + 1, false), s0);
    // ite_rec, not the public bdd_or — same mid-recursion maintenance hazard.
    return lo == kBddTrue
               ? kBddTrue
               : ite_rec(lo, kBddTrue, pair_pre_image_rec(cofactor(ra, x + 1, true), s1));
  };
  const Bdd r0 = cofactor(r, x, false);
  const Bdd r1 = cofactor(r, x, true);
  const Bdd t0 = row(r0);
  const Bdd result = mk(x, t0, r1 == r0 ? t0 : row(r1));
  cache_store(Op::kPairPreImage, r, s, 0, result);
  return result;
}

// ---- Rename -----------------------------------------------------------------

namespace {

/// The widest block W rename's restriction path takes: each node carries
/// 2^|W| restrictions, and the ring rotation needs four.
constexpr std::size_t kMaxWrapped = 4;

}  // namespace

BddRef BddManager::rename(Bdd f, const std::vector<std::uint32_t>& map) {
  ICTL_ASSERT(f < nodes_.size());
  // The map need only cover f's support (a system built before its shared
  // manager grew still renames its own sets), so that is what is checked.
  std::vector<std::uint32_t> vars;
  const std::vector<Bdd> nodes = walk_dag({&f, 1}, vars);
  for (const std::uint32_t v : vars) {
    if (v >= map.size())
      throw Error("BddManager::rename: the map has no entry for support variable " +
                  std::to_string(v));
    if (map[v] >= num_vars_)
      throw Error("BddManager::rename: the map sends variable " + std::to_string(v) + " to " +
                  std::to_string(map[v]) + ", past the manager's " +
                  std::to_string(num_vars_) + " variables");
  }
  if (rename_val_.size() < rename_stamp_.size())
    rename_val_.resize(rename_stamp_.size(), kBddFalse);
  const std::optional<std::vector<std::uint32_t>> wrapped = wrapped_block(std::move(vars), map);
  Bdd renamed = kBddFalse;
  if (wrapped.has_value()) {
    renamed = rename_wrapped(f, nodes, *wrapped, map);
  } else {
    // The walk left a fresh epoch behind, so the memo starts empty: each
    // call pays only for the nodes it visits, never an O(total nodes)
    // clear.  (invalidate_operation_caches also bumps this epoch.)
    ensure_cache();  // a map that breaks the order runs ite_rec
    renamed = rename_rec(f, map);
  }
  BddRef result(*this, renamed);
  run_deferred_maintenance();
  return result;
}

std::optional<std::vector<std::uint32_t>> BddManager::wrapped_block(
    std::vector<std::uint32_t> support, const std::vector<std::uint32_t>& map) const {
  const auto image = [&](std::uint32_t v) { return var2level_[map[v]]; };
  std::sort(support.begin(), support.end(), [&](std::uint32_t a, std::uint32_t b) {
    return var2level_[a] < var2level_[b];
  });
  // W, if any, is the k variables with the lowest images for the least k
  // that leaves the other images strictly increasing down the order.
  std::array<std::uint32_t, kMaxWrapped + 1> lowest{};
  const std::size_t candidates = std::min(support.size(), lowest.size());
  std::partial_sort_copy(support.begin(), support.end(), lowest.begin(),
                         lowest.begin() + static_cast<std::ptrdiff_t>(candidates),
                         [&](std::uint32_t a, std::uint32_t b) { return image(a) < image(b); });
  for (std::size_t k = 0; k <= std::min(candidates, kMaxWrapped); ++k) {
    const std::uint32_t floor = k < candidates ? image(lowest[k]) : kTerminalLevel;
    // Two equal images among W and the first image past it: the map is
    // not injective on the support, for this k and every larger one.
    if (k > 0 && image(lowest[k - 1]) >= floor) return std::nullopt;
    bool ordered = true;
    std::int64_t last = -1;
    for (const std::uint32_t v : support) {
      const std::uint32_t y = image(v);
      if (y < floor) continue;  // in W
      ordered = ordered && y > last;
      last = y;
    }
    if (ordered) return std::vector<std::uint32_t>(lowest.begin(), lowest.begin() + k);
  }
  return std::nullopt;
}

Bdd BddManager::rename_wrapped(Bdd f, const std::vector<Bdd>& nodes,
                               const std::vector<std::uint32_t>& wrapped,
                               const std::vector<std::uint32_t>& map) {
  // rows[j << k | a] is row j's renamed restriction to W = a, bit b of a
  // giving wrapped[b]'s value.  Rows 0 and 1 are the terminals; node
  // nodes[i] owns row i + 2, found through rename_val_ under no current
  // stamp (no memo entry), since the walk's epoch is already retired.
  const std::size_t k = wrapped.size();
  const std::size_t width = std::size_t{1} << k;
  std::vector<Bdd> rows((nodes.size() + 2) << k, kBddFalse);
  std::fill_n(rows.begin() + static_cast<std::ptrdiff_t>(width), width, kBddTrue);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    rename_val_[nodes[i]] = static_cast<Bdd>(i + 2);
  const auto row = [&](Bdd x) {
    return rows.data() + (std::size_t{is_terminal(x) ? x : rename_val_[x]} << k);
  };
  // Children first, so every child's row is complete.  Below a W node the
  // restriction picks a branch; elsewhere the map keeps the order, so the
  // renamed node is one mk per restriction, every one a node of the result.
  for (const Bdd x : nodes) {
    const Node n = nodes_[x];  // copy: mk() below may reallocate nodes_
    const Bdd* lo = row(n.low);
    const Bdd* hi = row(n.high);
    Bdd* out = row(x);
    const auto at = std::find(wrapped.begin(), wrapped.end(), n.var);
    if (at != wrapped.end()) {
      const std::size_t bit = std::size_t{1} << (at - wrapped.begin());
      for (std::size_t a = 0; a < width; ++a) out[a] = (a & bit) != 0 ? hi[a] : lo[a];
    } else {
      const std::uint32_t v = map[n.var];
      for (std::size_t a = 0; a < width; ++a) out[a] = mk(v, lo[a], hi[a]);
    }
  }
  // Stack W's images on top of f's row, the deepest first: a decision
  // tree over them whose leaves are the restrictions, reduced by mk.
  Bdd* top = row(f);
  std::size_t stacked = 0;
  for (std::size_t b = k; b-- > 0;) {
    const std::size_t bit = std::size_t{1} << b;
    for (std::size_t a = 0; a < width; ++a)
      if ((a & (stacked | bit)) == 0) top[a] = mk(map[wrapped[b]], top[a], top[a | bit]);
    stacked |= bit;
  }
  return top[0];
}

Bdd BddManager::rename_rec(Bdd f, const std::vector<std::uint32_t>& map) {
  if (is_terminal(f)) return f;
  if (rename_stamp_[f] == rename_epoch_) return rename_val_[f];
  const Node n = nodes_[f];  // copy: mk() below may reallocate nodes_
  const Bdd lo = rename_rec(n.low, map);
  const Bdd hi = rename_rec(n.high, map);
  const std::uint32_t v = map[n.var];
  // Order kept at this node: rebuild it directly.  Otherwise the renamed
  // variable lies below part of a child's cone, and an ITE on its literal
  // sinks it into place (ite_rec, not the public ite — no maintenance may
  // run while this recursion holds unrooted handles).
  const std::uint32_t lv = var2level_[v];
  const Bdd result = lv < level(lo) && lv < level(hi)
                         ? mk(v, lo, hi)
                         : ite_rec(mk(v, kBddFalse, kBddTrue), hi, lo);
  rename_stamp_[f] = rename_epoch_;
  rename_val_[f] = result;
  return result;
}

// ---- Reordering -------------------------------------------------------------

void BddManager::swap_adjacent_levels(std::uint32_t lvl) {
  support::require<Error>(lvl + 1 < num_vars_,
                          "BddManager::swap_adjacent_levels: level out of range");
  // The rewrite below keys its reference maintenance on is_live(): settle
  // queued deaths first so a zombie isn't rewritten as if it were dead
  // while its cone still carries its counts.
  flush_dead_queue();
  swap_levels_internal(lvl);
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "swap_adjacent_levels");
#endif
}

void BddManager::swap_levels_internal(std::uint32_t lvl) {
  const std::uint32_t x = level2var_[lvl];      // moves down to lvl + 1
  const std::uint32_t y = level2var_[lvl + 1];  // moves up to lvl
  ++stats_.sift_swaps;
  // Flip the maps first: the mk() calls below must already see the
  // post-swap order for their invariant checks.
  level2var_[lvl] = y;
  level2var_[lvl + 1] = x;
  var2level_[x] = lvl + 1;
  var2level_[y] = lvl;

  // Split x's nodes: those depending on y must be rewritten in place (their
  // handles must keep their functions); the rest just sink one level.
  SubTable& tx = subtables_[x];
  swap_movers_.clear();
  swap_keepers_.clear();
  for (const Bdd head : tx.buckets)
    for (Bdd id = head; id != kNoNode; id = nodes_[id].next) {
      const Node& n = nodes_[id];
      if (nodes_[n.low].var == y || nodes_[n.high].var == y)
        swap_movers_.push_back(id);
      else
        swap_keepers_.push_back(id);
    }
  if (swap_movers_.empty()) return;
  stats_.sift_rewrites += swap_movers_.size();

  std::fill(tx.buckets.begin(), tx.buckets.end(), kNoNode);
  tx.count = 0;
  for (const Bdd id : swap_keepers_) insert_unique(x, id);

  for (const Bdd f : swap_movers_) {
    const Node n = nodes_[f];  // copy: mk() below may reallocate nodes_
    const bool low_is_y = nodes_[n.low].var == y;
    const bool high_is_y = nodes_[n.high].var == y;
    // f = x ? f1 : f0 = y ? (x ? f11 : f01) : (x ? f10 : f00).
    const Bdd f00 = low_is_y ? nodes_[n.low].low : n.low;
    const Bdd f01 = low_is_y ? nodes_[n.low].high : n.low;
    const Bdd f10 = high_is_y ? nodes_[n.high].low : n.high;
    const Bdd f11 = high_is_y ? nodes_[n.high].high : n.high;
    const Bdd a = mk(x, f00, f10);  // the y = 0 cofactor
    const Bdd b = mk(x, f01, f11);  // the y = 1 cofactor
    // f depended on y (it had a y child and was reduced), so its cofactors
    // differ and the rewritten node cannot collide with a pre-existing
    // y-node: canonicity would have merged them before the swap.
    ICTL_ASSERT(a != b);
    const bool live = is_live(f);
    if (live) {
      make_live_ref(a);
      make_live_ref(b);
    }
    Node& slot = nodes_[f];  // re-take: mk() may have reallocated nodes_
    slot.var = y;
    slot.low = a;
    slot.high = b;
    insert_unique(y, f);
    if (live) {
      drop_ref(n.low);
      drop_ref(n.high);
      --var_live_count_[x];
      ++var_live_count_[y];
    }
  }
}

void BddManager::flush_dead_queue() noexcept {
  while (!dead_queue_.empty()) {
    const Bdd f = dead_queue_.back();
    dead_queue_.pop_back();
    if (queued_dead_[f] == 0) continue;  // revived since it was queued
    queued_dead_[f] = 0;
    --queued_dead_count_;
    --var_live_count_[nodes_[f].var];
    --live_nodes_;
    drop_ref(nodes_[f].low);
    drop_ref(nodes_[f].high);
  }
}

std::size_t BddManager::live_nodes() const noexcept {
  // Settling the deferred deaths only mutates bookkeeping, never the node
  // table or any handle — logically const.
  const_cast<BddManager*>(this)->flush_dead_queue();
  return live_nodes_;
}

std::size_t BddManager::collect_dead_nodes() {
  // Queued roots still hold their cones' reference counts; settle them
  // first or the sweep would retire a zombie while its children stay
  // counted as referenced.
  flush_dead_queue();
  std::size_t retired = 0;
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    SubTable& t = subtables_[v];
    for (Bdd& head : t.buckets) {
      Bdd id = head;
      head = kNoNode;
      Bdd* tail = &head;
      while (id != kNoNode) {
        const Bdd next = nodes_[id].next;
        if (is_live(id)) {
          *tail = id;
          nodes_[id].next = kNoNode;
          tail = &nodes_[id].next;
        } else {
          retired_[id] = 1;
          ++retired;
          --t.count;
        }
        id = next;
      }
    }
  }
  nodes_at_last_collect_ = nodes_.size();
  return retired;
}

void BddManager::exchange_blocks(std::uint32_t pos) {
  // Exchanges the adjacent pair blocks at positions pos and pos + 1
  // (levels 2pos..2pos+3): bubble each variable of the upper pair,
  // bottom-most first, down past the lower pair.
  const std::uint32_t l = 2 * pos;
  for (const std::uint32_t from : {l + 1, l})
    for (std::uint32_t k = 0; k < 2; ++k) swap_levels_internal(from + k);
}

void BddManager::sift_block(std::uint32_t top_var, std::uint32_t num_blocks) {
  ICTL_PROFILE_ARG("bdd", "sift_journey", "top_var", top_var);
  ICTL_ASSERT(var2level_[top_var] % 2 == 0);
  std::uint32_t pos = var2level_[top_var] / 2;
  const std::size_t start_size = live_nodes_;
  // The max-growth bound: 1.2x the live table at the journey's start.
  const std::size_t bound = start_size + start_size / 5 + 8;
  std::size_t best_size = start_size;
  std::uint32_t best_pos = pos;
  const std::uint32_t last = num_blocks - 1;

  // One block journey can mint zombies at every level it crosses (the old
  // position's rewrites die as the block moves on); reap them mid-journey
  // once they outnumber the live table or transient memory compounds.
  const auto maybe_collect = [&] {
    if (nodes_.size() - nodes_at_last_collect_ > live_nodes_ + 4096)
      collect_dead_nodes();
  };
  // Walk to the nearer end first (fewer swaps wasted if that direction is
  // bad), then sweep across to the other end, recording the minimum.
  const bool down_first = (last - pos) <= pos;
  for (int leg = 0; leg < 2; ++leg) {
    const bool down = (leg == 0) == down_first;
    if (down) {
      while (pos < last && live_nodes_ <= bound) {
        exchange_blocks(pos);
        ++pos;
        maybe_collect();
        if (live_nodes_ < best_size) {
          best_size = live_nodes_;
          best_pos = pos;
        }
      }
    } else {
      while (pos > 0 && live_nodes_ <= bound) {
        exchange_blocks(pos - 1);
        --pos;
        maybe_collect();
        if (live_nodes_ < best_size) {
          best_size = live_nodes_;
          best_pos = pos;
        }
      }
    }
  }
  while (pos < best_pos) {
    exchange_blocks(pos);
    ++pos;
  }
  while (pos > best_pos) {
    exchange_blocks(pos - 1);
    --pos;
  }
}

std::size_t BddManager::reorder_now() {
  if (in_reorder_ || protect_scope_depth_ > 0 || num_vars_ < 2) return live_nodes();
  support::require<Error>(sifts_in_pairs(*this),
                          std::string("BddManager::reorder_now") + kNotInPairs);
  // Above in_reorder_: a throw must not leave the flag stuck.
  rt::checkpoint("bdd/reorder");
  in_reorder_ = true;
  ICTL_PROFILE_ARG("bdd", "sift_pass", "live_nodes", live_nodes_);
  ++stats_.sift_passes;
  // Sweep before ranking: the block-population ranking and the sift's
  // size accounting must both see the true live set, zombies settled.
  collect_dead_nodes();
  const std::uint32_t num_blocks = num_vars_ / 2;
  std::vector<std::uint32_t> ranking(num_blocks);
  std::iota(ranking.begin(), ranking.end(), 0u);
  const auto block_population = [&](std::uint32_t b) {
    return var_live_count_[2 * b] + var_live_count_[2 * b + 1];
  };
  std::stable_sort(ranking.begin(), ranking.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return block_population(a) > block_population(b);
                   });
  const std::size_t budget = 16 * live_nodes_ + 4096;
  const std::size_t rewrites_at_start = stats_.sift_rewrites;
  bool interrupted = false;
  for (const std::uint32_t b : ranking) {
    // Deadline/cancellation poll between block journeys.  Throwing from
    // inside a journey would strand in_reorder_ and half-moved blocks, so
    // stop placing further blocks, finish the pass bookkeeping below
    // (caches invalidated, flags reset, audit run), and only then raise
    // from the checkpoint after the epilogue.
    if (rt::interrupt_pending()) {
      interrupted = true;
      break;
    }
    sift_block(2 * b, num_blocks);
    // Swaps rewrite dead nodes alongside live ones (handles must keep
    // their functions), so every block journey grows the zombie pile;
    // retire it before it compounds into the next block's journey.
    if (nodes_.size() - nodes_at_last_collect_ > live_nodes_ + 4096)
      collect_dead_nodes();
    if (stats_.sift_rewrites - rewrites_at_start > budget) break;
  }
  in_reorder_ = false;
  reorder_pending_ = false;  // growth during the sift is not a new trigger
  gc_pending_ = false;       // the pass collected as it went
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "reorder_now");
#endif
  if (interrupted) rt::checkpoint("bdd/sift_pass");
  return live_nodes_;
}

// ---- Inspection -------------------------------------------------------------

bool BddManager::eval(Bdd f, const std::vector<bool>& assignment) const {
  ICTL_ASSERT(f < nodes_.size());
  while (!is_terminal(f)) {
    const Node& n = nodes_[f];
    ICTL_ASSERT(n.var < assignment.size());
    f = assignment[n.var] ? n.high : n.low;
  }
  return f == kBddTrue;
}

SatCount BddManager::sat_count_exact(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  std::vector<SatCount> memo(nodes_.size());
  std::vector<char> seen(nodes_.size(), 0);
  SatCount below = sat_count_exact_rec(f, memo, seen);
  const std::uint32_t root_level =
      is_terminal(f) ? num_vars_ : var2level_[nodes_[f].var];
  if (!below.is_zero()) below.exponent += static_cast<std::int32_t>(root_level);
  return below;
}

SatCount BddManager::sat_count_exact_rec(Bdd f, std::vector<SatCount>& memo,
                                         std::vector<char>& seen) const {
  if (f == kBddFalse) return SatCount{};
  if (f == kBddTrue) return SatCount::make(1);
  if (seen[f] != 0) return memo[f];
  const Node& n = nodes_[f];
  const std::uint32_t my_level = var2level_[n.var];
  const auto scaled = [&](Bdd child) {
    SatCount c = sat_count_exact_rec(child, memo, seen);
    const std::uint32_t child_level =
        is_terminal(child) ? num_vars_ : var2level_[nodes_[child].var];
    if (!c.is_zero())
      c.exponent += static_cast<std::int32_t>(child_level - my_level - 1);
    return c;
  };
  const SatCount result = scaled(n.low) + scaled(n.high);
  seen[f] = 1;
  memo[f] = result;
  return result;
}

std::vector<Bdd> BddManager::walk_dag(std::span<const Bdd> roots,
                                      std::vector<std::uint32_t>& support) const {
  if (rename_stamp_.size() < nodes_.size()) rename_stamp_.resize(nodes_.size(), 0);
  if (var_stamp_.size() < num_vars_) var_stamp_.resize(num_vars_, 0);
  const std::uint64_t mark = ++rename_epoch_;
  std::vector<Bdd> order;
  std::vector<Bdd> path;  // a root-to-node path: a marked child is finished
  const auto enter = [&](Bdd x) {
    if (is_terminal(x) || rename_stamp_[x] == mark) return false;
    rename_stamp_[x] = mark;
    path.push_back(x);
    return true;
  };
  for (const Bdd root : roots) {
    ICTL_ASSERT(root < nodes_.size());
    enter(root);
    while (!path.empty()) {
      const Node& n = nodes_[path.back()];
      if (enter(n.low) || enter(n.high)) continue;
      if (var_stamp_[n.var] != mark) {
        var_stamp_[n.var] = mark;
        support.push_back(n.var);
      }
      order.push_back(path.back());
      path.pop_back();
    }
  }
  // The marks are visit flags, not memo entries: retire their epoch, so
  // the memo is empty under the current one.
  ++rename_epoch_;
  return order;
}

std::vector<Bdd> BddManager::children_first(std::span<const Bdd> roots) const {
  std::vector<std::uint32_t> vars;
  return walk_dag(roots, vars);
}

std::size_t BddManager::dag_size(Bdd f) const { return dag_size(std::vector<Bdd>{f}); }

std::size_t BddManager::dag_size(const std::vector<Bdd>& roots) const {
  return children_first(roots).size();
}

std::vector<std::uint32_t> BddManager::support_vars(Bdd f) const {
  return support_vars(std::vector<Bdd>{f});
}

std::vector<std::uint32_t> BddManager::support_vars(const std::vector<Bdd>& roots) const {
  std::vector<std::uint32_t> vars;
  static_cast<void>(walk_dag(roots, vars));
  std::sort(vars.begin(), vars.end());
  return vars;
}

std::uint32_t BddManager::node_var(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].var;
}

Bdd BddManager::node_low(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].low;
}

Bdd BddManager::node_high(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].high;
}

// ---- Deep audits ------------------------------------------------------------

std::string BddManager::AuditReport::to_string() const {
  std::string out;
  for (const std::string& f : failures) {
    if (!out.empty()) out += '\n';
    out += f;
  }
  return out;
}

namespace {

void fail(BddManager::AuditReport& report, std::string message) {
  // Bounded: a corrupted table can violate one invariant at every node, and
  // an audit report is for reading, not for streaming the whole table.
  constexpr std::size_t kMaxFailures = 64;
  if (report.failures.size() < kMaxFailures) report.failures.push_back(std::move(message));
}

}  // namespace

void BddManager::audit_structure(AuditReport& report) const {
  // The order maps are mutually inverse permutations.
  for (std::uint32_t l = 0; l < num_vars_; ++l)
    if (level2var_[l] >= num_vars_ || var2level_[level2var_[l]] != l)
      fail(report, "structure: order maps not inverse at level " + std::to_string(l));
  // Order invariant, reducedness, global canonicity, live linkage closure.
  // Retired zombies are exempt (unlinked and skipped by swaps, so their
  // triples may be stale); liveness checks their counts instead.
  std::map<std::tuple<std::uint32_t, Bdd, Bdd>, Bdd> triples;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (retired_[id] != 0) continue;
    const Node& n = nodes_[id];
    const std::string at = " at node " + std::to_string(id);
    if (n.var >= num_vars_) {
      fail(report, "structure: variable out of range" + at);
      continue;
    }
    if (n.low >= nodes_.size() || n.high >= nodes_.size()) {
      fail(report, "structure: child handle out of range" + at);
      continue;
    }
    if (n.low == n.high) fail(report, "structure: unreduced node (low == high)" + at);
    if ((!is_terminal(n.low) && retired_[n.low] != 0) ||
        (!is_terminal(n.high) && retired_[n.high] != 0))
      fail(report, "structure: live node references a retired child" + at);
    if (level(id) >= level(n.low) || level(id) >= level(n.high))
      fail(report, "structure: order invariant violated" + at);
    if (!triples.emplace(std::make_tuple(n.var, n.low, n.high), id).second)
      fail(report, "structure: duplicate (var, low, high) triple — canonicity broken" + at);
  }
  // Unique-subtable membership: every non-retired node on exactly its own
  // variable's chain, chain populations matching the counted sizes.
  std::vector<bool> chained(nodes_.size(), false);
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    std::size_t seen = 0;
    for (const Bdd head : subtables_[v].buckets)
      for (Bdd id = head; id != kNoNode; id = nodes_[id].next) {
        if (id >= nodes_.size()) {
          fail(report, "structure: subtable chain runs off the node table at var " +
                           std::to_string(v));
          break;
        }
        if (nodes_[id].var != v)
          fail(report, "structure: node " + std::to_string(id) +
                           " chained under foreign var " + std::to_string(v));
        if (chained[id])
          fail(report, "structure: node " + std::to_string(id) + " chained twice");
        if (retired_[id] != 0)
          fail(report, "structure: retired node " + std::to_string(id) +
                           " still chained in the unique table");
        chained[id] = true;
        ++seen;
      }
    if (seen != subtables_[v].count)
      fail(report, "structure: subtable count mismatch at var " + std::to_string(v) +
                       " (chained " + std::to_string(seen) + ", counted " +
                       std::to_string(subtables_[v].count) + ")");
  }
  for (Bdd id = 2; id < nodes_.size(); ++id)
    if (!chained[id] && retired_[id] == 0)
      fail(report, "structure: node " + std::to_string(id) +
                       " missing from the unique table but not retired");
}

void BddManager::audit_liveness(AuditReport& report) const {
  // Queue/flag coherence.  The dead queue may hold stale entries whose flag
  // was cleared by a revive (that is the O(1) contract), but every SET flag
  // must still be discoverable by the flush walk.
  std::vector<bool> in_queue(nodes_.size(), false);
  for (const Bdd id : dead_queue_) {
    if (id >= nodes_.size()) {
      fail(report, "liveness: dead queue holds out-of-range id " + std::to_string(id));
      continue;
    }
    in_queue[id] = true;
  }
  std::size_t flagged = 0;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (queued_dead_[id] != 0) {
      ++flagged;
      if (ext_ref_[id] != 0)
        fail(report, "liveness: queued-dead node " + std::to_string(id) +
                         " still externally referenced");
      if (retired_[id] != 0)
        fail(report, "liveness: queued-dead node " + std::to_string(id) + " is retired");
      if (!in_queue[id])
        fail(report, "liveness: queued-dead flag set on node " + std::to_string(id) +
                         " but the node is not in the dead queue");
    }
    if (retired_[id] != 0 && (ref_[id] != 0 || ext_ref_[id] != 0))
      fail(report, "liveness: retired node " + std::to_string(id) +
                       " still carries references");
  }
  if (flagged != queued_dead_count_)
    fail(report, "liveness: queued_dead_count_ is " + std::to_string(queued_dead_count_) +
                     " but " + std::to_string(flagged) + " flags are set");
  // Reference-count recount WITHOUT settling the queue: a queued zombie has
  // released its external root but not yet torn down its cone's counts, so
  // the expected counts are exactly those of the root set {externally
  // referenced} ∪ {queued dead}.
  std::vector<std::uint32_t> expected_ref(nodes_.size(), 0);
  std::vector<bool> live(nodes_.size(), false);
  std::vector<Bdd> stack;
  for (Bdd id = 2; id < nodes_.size(); ++id)
    if ((ext_ref_[id] != 0 || queued_dead_[id] != 0) && !live[id]) {
      live[id] = true;
      stack.push_back(id);
    }
  while (!stack.empty()) {
    const Bdd x = stack.back();
    stack.pop_back();
    if (nodes_[x].low >= nodes_.size() || nodes_[x].high >= nodes_.size())
      continue;  // already reported by the structure tier
    for (const Bdd child : {nodes_[x].low, nodes_[x].high}) {
      if (is_terminal(child)) continue;
      ++expected_ref[child];
      if (!live[child]) {
        live[child] = true;
        stack.push_back(child);
      }
    }
  }
  std::vector<std::size_t> expected_var_count(num_vars_, 0);
  std::size_t expected_live = 0;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (ref_[id] != expected_ref[id])
      fail(report, "liveness: node " + std::to_string(id) + " has refcount " +
                       std::to_string(ref_[id]) + ", recount says " +
                       std::to_string(expected_ref[id]));
    if (live[id] && nodes_[id].var < num_vars_) {
      ++expected_live;
      ++expected_var_count[nodes_[id].var];
    }
  }
  if (expected_live != live_nodes_)
    fail(report, "liveness: live_nodes_ is " + std::to_string(live_nodes_) +
                     ", recount says " + std::to_string(expected_live));
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (expected_var_count[v] != var_live_count_[v])
      fail(report, "liveness: var_live_count_[" + std::to_string(v) + "] is " +
                       std::to_string(var_live_count_[v]) + ", recount says " +
                       std::to_string(expected_var_count[v]));
}

void BddManager::audit_caches(AuditReport& report) const {
  const auto retired = [&](Bdd f) {
    return f < nodes_.size() && !is_terminal(f) && retired_[f] != 0;
  };
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    const CacheEntry& e = cache_[i];
    if (e.op == Op::kNone) continue;
    for (const Bdd operand : {e.a, e.b, e.c, e.result}) {
      if (operand >= nodes_.size())
        fail(report, "caches: computed-table entry " + std::to_string(i) +
                         " references out-of-range handle " + std::to_string(operand));
      else if (retired(operand))
        fail(report, "caches: computed-table entry " + std::to_string(i) +
                         " references retired handle " + std::to_string(operand));
    }
  }
  for (Bdd id = 0; id < rename_stamp_.size(); ++id) {
    if (rename_stamp_[id] > rename_epoch_) {
      fail(report, "caches: rename memo for node " + std::to_string(id) +
                       " stamped with a future epoch");
      continue;
    }
    if (rename_stamp_[id] != rename_epoch_) continue;
    if (retired(id))
      fail(report, "caches: rename memo keeps a current-epoch entry for retired node " +
                       std::to_string(id));
    const Bdd val = rename_val_[id];
    if (val >= nodes_.size())
      fail(report, "caches: rename memo for node " + std::to_string(id) +
                       " holds out-of-range handle " + std::to_string(val));
    else if (retired(val))
      fail(report, "caches: rename memo for node " + std::to_string(id) +
                       " holds retired handle " + std::to_string(val));
  }
}

void BddManager::audit_satcount(const SatCount& count, const std::string& what,
                                AuditReport& report) {
  if (count.is_zero()) {
    if (count.exponent != 0)
      fail(report, "counts: zero SatCount with nonzero exponent for " + what);
    return;
  }
  if ((count.lo & 1u) == 0)
    fail(report, "counts: SatCount mantissa not normalized odd for " + what);
  if (count.exponent < 0)
    fail(report, "counts: SatCount with negative exponent for " + what +
                     " (assignment counts are integers)");
}

void BddManager::audit_counts(AuditReport& report) const {
  // Every externally rooted function: the exact count must be normalized
  // and, on small managers, agree with brute-force evaluation.
  // (sat_count_exact can legitimately overflow its 128-bit odd part — that
  // is a documented limit, not corruption — so overflow skips the root.)
  const bool brute_force = num_vars_ <= 12;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (ext_ref_[id] == 0 || retired_[id] != 0) continue;
    const std::string what = "root " + std::to_string(id);
    SatCount exact;
    try {
      exact = sat_count_exact(id);
    } catch (const Error&) {
      continue;
    }
    audit_satcount(exact, what, report);
    if (brute_force) {
      std::uint64_t enumerated = 0;
      std::vector<bool> assignment(num_vars_, false);
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << num_vars_); ++bits) {
        for (std::uint32_t v = 0; v < num_vars_; ++v)
          assignment[v] = ((bits >> v) & 1u) != 0;
        if (eval(id, assignment)) ++enumerated;
      }
      if (exact != SatCount::make(enumerated))
        fail(report, "counts: sat_count_exact disagrees with brute-force "
                     "enumeration for " +
                         what + " (enumerated " + std::to_string(enumerated) + ")");
    }
  }
}

BddManager::AuditReport BddManager::audit(AuditLevel level) const {
  AuditReport report;
  audit_structure(report);
  if (level >= AuditLevel::kLiveness) audit_liveness(report);
  if (level >= AuditLevel::kCaches) audit_caches(report);
  if (level >= AuditLevel::kFull) audit_counts(report);
  return report;
}

void BddManager::assert_audit(AuditLevel level, const char* where) const {
  const AuditReport report = audit(level);
  if (!report.ok())
    throw Error(std::string("BddManager audit failed at ") + where + ":\n" +
                report.to_string());
}

}  // namespace ictl::symbolic
