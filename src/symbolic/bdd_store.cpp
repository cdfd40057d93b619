#include "symbolic/bdd_store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <unordered_set>

#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

namespace {

constexpr char kBddMagic[8] = {'I', 'C', 'T', 'L', 'B', 'D', 'D', '\n'};
constexpr char kSystemMagic[8] = {'I', 'C', 'T', 'L', 'T', 'S', '1', '\n'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Sanity bounds so a corrupt length field fails with Error instead of a
// multi-gigabyte allocation.
constexpr std::uint32_t kMaxVars = 1u << 24;
constexpr std::uint64_t kMaxNodes = (std::uint64_t{1} << 32) - 2;
constexpr std::uint32_t kMaxNameLen = 1u << 16;

/// The little-endian u32 at `b`.
std::uint32_t le32(const unsigned char* b) {
  return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
}

/// The little-endian u64 at `b`.
std::uint64_t le64(const unsigned char* b) {
  return static_cast<std::uint64_t>(le32(b)) | static_cast<std::uint64_t>(le32(b + 4)) << 32;
}

/// The store's checksum over a byte stream, however the stream is split
/// into calls: FNV-1a over 8-byte little-endian words, one serial step per
/// word instead of per byte, then the 0-7 byte tail as one last word with
/// its length in the top byte.  Each step multiplies twice with the halves
/// swapped in between: after one multiply a difference in a word's top bit
/// stays that one bit, which the next word could cancel.  Every step is a
/// bijection of the word, so any change confined to one word changes the
/// sum.
class Checksum {
 public:
  void fold(const unsigned char* p, std::size_t n) {
    if (fill_ > 0) {  // complete the pending word first
      const std::size_t take = std::min(n, 8 - fill_);
      std::memcpy(tail_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ < 8) return;
      h_ = step(h_, le64(tail_));
      fill_ = 0;
    }
    std::uint64_t h = h_;
    for (; n >= 8; p += 8, n -= 8) h = step(h, le64(p));
    h_ = h;
    std::memcpy(tail_, p, n);
    fill_ = n;
  }
  [[nodiscard]] std::uint64_t sum() const {
    std::uint64_t last = static_cast<std::uint64_t>(fill_) << 56;
    for (std::size_t i = 0; i < fill_; ++i)
      last |= static_cast<std::uint64_t>(tail_[i]) << (8 * i);
    return step(h_, last);
  }

 private:
  static std::uint64_t step(std::uint64_t h, std::uint64_t word) {
    return std::rotl((h ^ word) * kFnvPrime, 32) * kFnvPrime;
  }

  std::uint64_t h_ = kFnvOffset;
  unsigned char tail_[8] = {};
  std::size_t fill_ = 0;
};

/// Byte sink folding everything written into a running checksum.
/// Integers travel explicitly little-endian, independent of host order.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    sum_.fold(p, n);
    out_.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
  }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  /// Writes the checksum accumulated so far (itself excluded from folding).
  void finish() {
    const std::uint64_t sum = sum_.sum();
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(sum >> (8 * i));
    out_.write(reinterpret_cast<const char*>(b), 8);
    support::require<Error>(out_.good(), "bdd_store: stream write failed");
  }

 private:
  std::ostream& out_;
  Checksum sum_;
};

/// Mirror of Writer: every read is length-checked (truncation is Error, not
/// garbage) and folded into the same checksum.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  void bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    support::require<Error>(
        !in_.fail() && static_cast<std::size_t>(in_.gcount()) == n,
        "bdd_store: truncated stream");
    sum_.fold(static_cast<const unsigned char*>(data), n);
  }
  std::uint32_t u32() {
    unsigned char b[4];
    bytes(b, 4);
    return le32(b);
  }
  std::uint64_t u64() {
    unsigned char b[8];
    bytes(b, 8);
    return le64(b);
  }
  /// Reads the stored checksum (unfolded) and compares it to the running one.
  void verify() {
    const std::uint64_t expected = sum_.sum();
    unsigned char b[8];
    in_.read(reinterpret_cast<char*>(b), 8);
    support::require<Error>(
        !in_.fail() && static_cast<std::size_t>(in_.gcount()) == 8,
        "bdd_store: truncated stream");
    support::require<Error>(le64(b) == expected, "bdd_store: checksum mismatch");
  }

 private:
  std::istream& in_;
  Checksum sum_;
};

/// Bytes left between the current position and the end of the stream, or
/// nullopt when the stream is unseekable (a pipe).  Lets the load paths
/// reject an allocation-bomb header — a declared count that could not
/// possibly fit in the rest of the file — before reserving for it.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here || !in.good())
    return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

Bdd LoadedBdds::root(std::string_view name) const {
  for (const auto& [root_name, ref] : roots)
    if (root_name == name) return ref.get();
  throw Error("bdd_store: no root named '" + std::string(name) + "' in the store");
}

void save_bdds(const BddManager& mgr, std::ostream& out,
               std::span<const std::pair<std::string, Bdd>> roots) {
  std::unordered_set<std::string_view> names;
  for (const auto& [name, root] : roots) {
    support::require<Error>(names.insert(name).second,
                            "save_bdds: duplicate root name '" + name + "'");
    support::require<Error>(root < mgr.num_nodes() && !mgr.is_retired(root),
                            "save_bdds: root '" + name + "' is retired");
  }

  // Children-first numbering, densely renumbered (handles are sparse after
  // GC, the file is not): node i of the walk gets file id 2 + i, through an
  // id table indexed by handle, and every record is encoded into one buffer
  // written at once.
  std::vector<Bdd> handles;
  handles.reserve(roots.size());
  for (const auto& [name, root] : roots) handles.push_back(root);
  const std::vector<Bdd> nodes = mgr.children_first(handles);
  std::vector<std::uint32_t> file_id(mgr.num_nodes());
  file_id[kBddTrue] = 1;
  std::vector<unsigned char> records(12 * nodes.size());
  unsigned char* rec = records.data();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Bdd f = nodes[i];
    file_id[f] = static_cast<std::uint32_t>(2 + i);
    for (const std::uint32_t field :
         {mgr.node_var(f), file_id[mgr.node_low(f)], file_id[mgr.node_high(f)]}) {
      for (int b = 0; b < 4; ++b) *rec++ = static_cast<unsigned char>(field >> (8 * b));
    }
  }

  Writer w(out);
  w.bytes(kBddMagic, sizeof(kBddMagic));
  w.u32(kVersion);
  w.u32(mgr.num_vars());
  for (const std::uint32_t v : mgr.current_order()) w.u32(v);
  w.u64(nodes.size());
  w.u32(static_cast<std::uint32_t>(roots.size()));
  w.bytes(records.data(), records.size());
  for (const auto& [name, root] : roots) {
    w.u32(static_cast<std::uint32_t>(name.size()));
    w.bytes(name.data(), name.size());
    w.u32(file_id[root]);
  }
  w.finish();
#ifdef ICTL_AUDIT
  mgr.assert_audit(BddManager::AuditLevel::kFull, "save_bdds");
#endif
}

LoadedBdds load_bdds(std::istream& in) {
  Reader r(in);
  char magic[8];
  r.bytes(magic, sizeof(magic));
  support::require<Error>(std::memcmp(magic, kBddMagic, sizeof(magic)) == 0,
                          "load_bdds: not a BDD store (bad magic)");
  const std::uint32_t version = r.u32();
  support::require<Error>(version == kVersion,
                          "load_bdds: unsupported store version " +
                              std::to_string(version));
  const std::uint32_t num_vars = r.u32();
  support::require<Error>(num_vars <= kMaxVars, "load_bdds: corrupt variable count");
  std::vector<std::uint32_t> level2var(num_vars);
  for (std::uint32_t l = 0; l < num_vars; ++l) level2var[l] = r.u32();
  const std::uint64_t num_nodes = r.u64();
  support::require<Error>(num_nodes <= kMaxNodes, "load_bdds: corrupt node count");
  const std::uint32_t num_roots = r.u32();
  support::require<Error>(num_roots <= kMaxNodes + 2,
                          "load_bdds: corrupt root count");
  // kMaxNodes alone still admits a ~17 GB handle vector from a 30-byte file;
  // when the stream is seekable, cross-check the declared counts against the
  // bytes actually present (12 per node record, >= 8 per root entry, 8 for
  // the trailing checksum) before reserving anything.
  const auto left = remaining_bytes(in);
  if (left) {
    const std::uint64_t need_nodes = num_nodes * std::uint64_t{12};
    support::require<Error>(*left >= 8 && need_nodes <= *left - 8,
                            "load_bdds: node count exceeds remaining file size");
    support::require<Error>(std::uint64_t{num_roots} * 8 <= *left - 8 - need_nodes,
                            "load_bdds: root count exceeds remaining file size");
  }
  // Checkpoint after the header checks, before any manager is built.
  rt::checkpoint("store/load_bdds");

  LoadedBdds result;
  result.manager = std::make_shared<BddManager>(num_vars);
  BddManager& mgr = *result.manager;
  mgr.set_initial_order(level2var);  // throws Error on a non-permutation

  // Every record is read and checked before any node is built, so the
  // manager can size its tables once (make_nodes) instead of growing them
  // record by record.  Records arrive in chunks, one stream read (and one
  // checksum fold) per chunk instead of three per record.
  std::vector<std::uint32_t> var_level(num_vars);
  for (std::uint32_t l = 0; l < num_vars; ++l) var_level[level2var[l]] = l;
  // The level of each file id, terminals below every variable.
  std::vector<std::uint32_t> level = {0xffffffffu, 0xffffffffu};
  std::vector<std::array<std::uint32_t, 3>> records;
  // Sized once when the count was checked against the bytes present; an
  // unseekable stream's count is unchecked, so its vectors grow as records
  // actually arrive.
  if (left) {
    level.reserve(2 + num_nodes);
    records.reserve(num_nodes);
  }
  constexpr std::uint64_t kChunk = 4096;
  std::vector<unsigned char> chunk(12 * std::min(num_nodes, kChunk));
  for (std::uint64_t first = 0; first < num_nodes; first += kChunk) {
    const std::uint64_t count = std::min(kChunk, num_nodes - first);
    r.bytes(chunk.data(), 12 * count);
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::uint64_t id = 2 + first + j;
      const unsigned char* rec = chunk.data() + 12 * j;
      const std::uint32_t var = le32(rec);
      const std::uint32_t low = le32(rec + 4);
      const std::uint32_t high = le32(rec + 8);
      // Plain ifs: the message is built only on the failure path, which
      // matters per record in unoptimized builds.
      if (var >= num_vars) throw Error("load_bdds: node variable out of range");
      if (low >= id || high >= id) throw Error("load_bdds: node references a later node");
      if (low == high) throw Error("load_bdds: unreduced node record");
      const std::uint32_t at = var_level[var];
      if (at >= level[low] || at >= level[high])
        throw Error("load_bdds: node record violates the variable order");
      level.push_back(at);
      records.push_back({var, low, high});
    }
  }

  // Rebuild through the public hash-consing constructor, children first, so
  // the loaded store is reduced and canonical by construction; file id i
  // becomes handle[i].  The scope keeps the not-yet-rooted nodes alive; the
  // roots are BddRef'd below, before it exits.
  const auto scope = mgr.protect_scope();
  std::vector<Bdd> handle = {kBddFalse, kBddTrue};
  mgr.make_nodes(records, handle);
  if (left) result.roots.reserve(num_roots);
  for (std::uint32_t k = 0; k < num_roots; ++k) {
    const std::uint32_t name_len = r.u32();
    support::require<Error>(name_len <= kMaxNameLen, "load_bdds: corrupt root name");
    std::string name(name_len, '\0');
    if (name_len > 0) r.bytes(name.data(), name_len);
    const std::uint32_t id = r.u32();
    support::require<Error>(id < handle.size(), "load_bdds: root id out of range");
    result.roots.emplace_back(std::move(name), BddRef(mgr, handle[id]));
  }
  r.verify();
#ifdef ICTL_AUDIT
  mgr.assert_audit(BddManager::AuditLevel::kFull, "load_bdds");
#endif
  return result;
}

void save_transition_system(const TransitionSystem& system, std::ostream& out) {
  const auto parts = system.partition();
  const auto props = system.props();
  const auto indices = system.index_set();
  const bool with_reachable = system.reachable_computed();

  Writer w(out);
  w.bytes(kSystemMagic, sizeof(kSystemMagic));
  w.u32(kVersion);
  w.u32(system.num_state_vars());
  w.u32(0);  // partition kind: 0 = disjunctive, the only kind a system has
  w.u32(static_cast<std::uint32_t>(parts.size()));
  w.u32(static_cast<std::uint32_t>(props.size()));
  for (const auto& [prop, fn] : props) w.u32(prop);
  w.u32(static_cast<std::uint32_t>(indices.size()));
  for (const std::uint32_t i : indices) w.u32(i);
  w.u32(with_reachable ? 1 : 0);
  w.finish();

  std::vector<std::pair<std::string, Bdd>> roots;
  roots.reserve(2 + parts.size() + props.size());
  roots.emplace_back("initial", system.initial());
  for (std::size_t k = 0; k < parts.size(); ++k)
    roots.emplace_back("part/" + std::to_string(k), parts[k].get());
  for (std::size_t k = 0; k < props.size(); ++k)
    roots.emplace_back("prop/" + std::to_string(k), props[k].second.get());
  if (with_reachable) roots.emplace_back("reach", system.reachable());
  save_bdds(system.manager(), out, roots);
}

TransitionSystem load_transition_system(std::istream& in,
                                        kripke::PropRegistryPtr registry) {
  Reader r(in);
  char magic[8];
  r.bytes(magic, sizeof(magic));
  support::require<Error>(std::memcmp(magic, kSystemMagic, sizeof(magic)) == 0,
                          "load_transition_system: not a system store (bad magic)");
  const std::uint32_t version = r.u32();
  support::require<Error>(version == kVersion,
                          "load_transition_system: unsupported store version " +
                              std::to_string(version));
  const std::uint32_t num_state_vars = r.u32();
  // A system's parts always combine by disjunction; tag 1 (conjunctive)
  // blobs from older writers are refused.
  support::require<ModelError>(r.u32() == 0,
                               "load_transition_system: partition kind is not "
                               "disjunctive (tag 0)");
  const std::uint32_t num_parts = r.u32();
  const std::uint32_t num_props = r.u32();
  support::require<Error>(num_parts <= kMaxNodes && num_props <= kMaxNodes,
                          "load_transition_system: corrupt header counts");
  // Same allocation-bomb guard as load_bdds: every prop id takes 4 header
  // bytes, and every part/prop must reappear as a named root (>= 13 bytes:
  // name length, "part/<k>", file id) in the BDD section that follows.  An
  // unseekable stream's counts are unchecked, so the vectors below grow as
  // entries actually arrive, and a bomb fails as a truncated stream.
  if (const auto left = remaining_bytes(in)) {
    support::require<Error>(
        std::uint64_t{num_props} * 4 <= *left && std::uint64_t{num_parts} * 13 <= *left,
        "load_transition_system: header counts exceed remaining file size");
  }
  std::vector<kripke::PropId> prop_ids;
  for (std::uint32_t k = 0; k < num_props; ++k) prop_ids.push_back(r.u32());
  const std::uint32_t num_indices = r.u32();
  support::require<Error>(num_indices <= kMaxNodes,
                          "load_transition_system: corrupt index-set size");
  if (const auto left = remaining_bytes(in)) {
    support::require<Error>(
        std::uint64_t{num_indices} * 4 <= *left,
        "load_transition_system: index-set size exceeds remaining file size");
  }
  std::vector<std::uint32_t> indices;
  for (std::uint32_t k = 0; k < num_indices; ++k) indices.push_back(r.u32());
  const std::uint32_t reach_tag = r.u32();
  support::require<Error>(reach_tag <= 1,
                          "load_transition_system: corrupt reachable flag");
  r.verify();

  const LoadedBdds blobs = load_bdds(in);

  // save_transition_system writes the roots in this order; look each name
  // up at its expected position first, so the hundreds of prop roots of a
  // large ring do not each scan the whole root list.
  std::size_t next_root = 0;
  const auto root = [&](const std::string& name) {
    const std::size_t at = next_root++;
    if (at < blobs.roots.size() && blobs.roots[at].first == name)
      return blobs.roots[at].second.get();
    return blobs.root(name);
  };
  const Bdd initial = root("initial");
  std::vector<Bdd> partition;
  for (std::uint32_t k = 0; k < num_parts; ++k)
    partition.push_back(root("part/" + std::to_string(k)));
  std::vector<std::pair<kripke::PropId, Bdd>> props;
  props.reserve(num_props);
  for (std::uint32_t k = 0; k < num_props; ++k)
    props.emplace_back(prop_ids[k], root("prop/" + std::to_string(k)));

  // blobs' BddRefs keep every root live until the constructor roots its own.
  TransitionSystem system(blobs.manager, num_state_vars, initial, std::move(partition),
                          std::move(registry), std::move(props), std::move(indices));
  if (reach_tag == 1) system.adopt_reachable(root("reach"));
#ifdef ICTL_AUDIT
  // The constructor audited the raw system; re-audit with the adopted
  // fixpoint so a saved non-fixpoint can never be reloaded silently.
  system.assert_audit("load_transition_system");
#endif
  return system;
}

}  // namespace ictl::symbolic
