// bdd_store: round-trip fidelity of the serialized node store (variable
// order, live nodes, named roots), the versioned-header and checksum
// validation paths (bad magic, truncation, corruption), and the
// TransitionSystem layer — including the acceptance pin: the M_64
// partitioned ring relation plus its reachable fixpoint reloads with
// identical exact sat counts and CTL verdicts, without a single
// computed-table operation and at least 4x faster (best of five each) than
// recomputing the fixpoint from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "obs/obs.hpp"
#include "ring/ring.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

using ictl::testing::scrambled_pair_order;

/// Truth table over the first `n <= 6` variables — comparable across
/// managers because assignments are indexed by VARIABLE.
std::uint64_t table_of(const BddManager& mgr, Bdd f, std::uint32_t n) {
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

TEST(BddStore, RoundTripPreservesOrderFunctionsAndCounts) {
  auto mgr = std::make_shared<BddManager>(6);
  mgr->set_initial_order(scrambled_pair_order(6, 99));
  const BddRef f = mgr->bdd_or(mgr->bdd_and(mgr->var(0), mgr->var(3)),
                               mgr->bdd_xor(mgr->var(2), mgr->var(5)));
  const BddRef g = mgr->bdd_iff(mgr->var(1), mgr->bdd_not(mgr->var(4)));
  const BddRef h = mgr->bdd_and(f, g);  // shares structure with f and g

  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {
      {"f", f}, {"g", g}, {"h", h}, {"top", kBddTrue}, {"bot", kBddFalse}};
  save_bdds(*mgr, stream, roots);

  const LoadedBdds loaded = load_bdds(stream);
  ASSERT_EQ(loaded.roots.size(), roots.size());
  EXPECT_EQ(loaded.manager->num_vars(), mgr->num_vars());
  EXPECT_EQ(loaded.manager->current_order(), mgr->current_order());
  EXPECT_EQ(loaded.root("top"), kBddTrue);
  EXPECT_EQ(loaded.root("bot"), kBddFalse);
  EXPECT_THROW(static_cast<void>(loaded.root("nope")), Error);

  for (const auto& [name, handle] : roots) {
    const Bdd reloaded = loaded.root(name);
    EXPECT_EQ(table_of(*loaded.manager, reloaded, 6), table_of(*mgr, handle, 6))
        << name;
    EXPECT_EQ(loaded.manager->dag_size(reloaded), mgr->dag_size(handle)) << name;
    EXPECT_EQ(loaded.manager->sat_count_exact(reloaded),
              mgr->sat_count_exact(handle))
        << name;
  }
  // The loaded store is reduced and hash-consed by construction, and the
  // shared structure stayed shared: h reuses f's and g's nodes.
  ASSERT_TRUE(loaded.manager->check_invariants());
  const std::vector<Bdd> all = {loaded.root("f"), loaded.root("g"),
                                loaded.root("h")};
  EXPECT_EQ(loaded.manager->dag_size(all),
            mgr->dag_size(std::vector<Bdd>{f.get(), g.get(), h.get()}));
}

TEST(BddStore, SaveIsDeterministic) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_xor(mgr->var(0), mgr->bdd_and(mgr->var(1), mgr->var(3)));
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  std::stringstream a, b;
  save_bdds(*mgr, a, roots);
  save_bdds(*mgr, b, roots);
  EXPECT_EQ(a.str(), b.str());
}

/// The store's checksum over a whole blob at once: FNV-1a over its 8-byte
/// little-endian words, each step h = rotl((h ^ w) * p, 32) * p, then the
/// 0-7 byte tail as one last word with its length in the top byte.
std::uint64_t store_checksum(const std::string& blob) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto step = [&](std::uint64_t h, std::uint64_t word) {
    return std::rotl((h ^ word) * kPrime, 32) * kPrime;
  };
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t words = blob.size() / 8;
  for (std::size_t k = 0; k <= words; ++k) {
    const std::size_t len = k < words ? 8 : blob.size() % 8;
    std::uint64_t word = k < words ? 0 : static_cast<std::uint64_t>(len) << 56;
    for (std::size_t i = 0; i < len; ++i)
      word |= static_cast<std::uint64_t>(static_cast<unsigned char>(blob[8 * k + i]))
              << (8 * i);
    h = step(h, word);
  }
  return h;
}

/// A version-2 store over `order`: `records` (var, low, high) are file ids
/// 2, 3, ..., each root is its name and file id, and the checksum of
/// everything before it seals the blob.
std::string encode_store(const std::vector<std::uint32_t>& order,
                         const std::vector<std::array<std::uint32_t, 3>>& records,
                         const std::vector<std::pair<std::string, std::uint32_t>>& roots) {
  std::string out;
  const auto bytes = [&](const void* data, std::size_t n) {
    out.append(static_cast<const char*>(data), n);
  };
  const auto le = [&](std::uint64_t v, int width) {
    unsigned char b[8];
    for (int i = 0; i < width; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, static_cast<std::size_t>(width));
  };
  bytes("ICTLBDD\n", 8);
  le(2, 4);  // version
  le(order.size(), 4);
  for (const std::uint32_t v : order) le(v, 4);
  le(records.size(), 8);
  le(roots.size(), 4);
  for (const auto& rec : records)
    for (const std::uint32_t field : rec) le(field, 4);
  for (const auto& [name, file_id] : roots) {
    le(name.size(), 4);
    bytes(name.data(), name.size());
    le(file_id, 4);
  }
  const std::uint64_t sum = store_checksum(out);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(sum >> (8 * i)));
  return out;
}

/// The store writer as it was before it numbered nodes through the DAG
/// walk: a postorder DFS per root (low before high) into a handle-keyed
/// map, each record written as three little-endian u32s, the checksum of
/// everything before it at the end.  The reference the current writer
/// must match byte for byte.
std::string map_dfs_store(const BddManager& mgr,
                          const std::vector<std::pair<std::string, Bdd>>& roots) {
  std::unordered_map<Bdd, std::uint32_t> file_id = {{kBddFalse, 0}, {kBddTrue, 1}};
  std::vector<std::array<std::uint32_t, 3>> records;
  std::vector<std::pair<Bdd, bool>> stack;
  for (const auto& [name, root] : roots) {
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      const auto [f, expanded] = stack.back();
      stack.pop_back();
      if (file_id.contains(f)) continue;
      if (expanded) {
        const auto fid = static_cast<std::uint32_t>(2 + records.size());
        records.push_back({mgr.node_var(f), file_id.at(mgr.node_low(f)),
                           file_id.at(mgr.node_high(f))});
        file_id.emplace(f, fid);
      } else {
        stack.emplace_back(f, true);
        stack.emplace_back(mgr.node_high(f), false);
        stack.emplace_back(mgr.node_low(f), false);
      }
    }
  }
  std::vector<std::pair<std::string, std::uint32_t>> named;
  for (const auto& [name, root] : roots) named.emplace_back(name, file_id.at(root));
  return encode_store(mgr.current_order(), records, named);
}

TEST(BddStore, WriterMatchesTheMapDfsWriterByteForByte) {
  // Random multi-root stores over scrambled orders, with shared cones,
  // repeated roots, terminal roots and — after a sweep — sparse handles.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64
  const auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    BddManager mgr(10);
    mgr.set_initial_order(scrambled_pair_order(10, seed));
    std::vector<BddRef> pool = {BddRef(mgr, kBddFalse), BddRef(mgr, kBddTrue)};
    for (std::uint32_t v = 0; v < 10; ++v) pool.push_back(mgr.var(v));
    for (int k = 0; k < 40; ++k) {
      const Bdd a = pool[next() % pool.size()];
      const Bdd b = pool[next() % pool.size()];
      switch (next() % 4) {
        case 0: pool.push_back(mgr.bdd_and(a, b)); break;
        case 1: pool.push_back(mgr.bdd_or(a, b)); break;
        case 2: pool.push_back(mgr.bdd_xor(a, b)); break;
        default: pool.push_back(mgr.bdd_diff(a, b)); break;
      }
    }
    if (seed % 2 == 0) {  // drop half the pool and sweep: sparse handles
      for (std::size_t k = 12; k < pool.size(); k += 2) pool[k] = BddRef(mgr, kBddFalse);
      static_cast<void>(mgr.garbage_collect());
    }
    std::vector<std::pair<std::string, Bdd>> roots;
    const std::size_t count = 1 + next() % 8;
    for (std::size_t k = 0; k < count; ++k) {
      std::string name = "r";
      name += std::to_string(k);
      roots.emplace_back(std::move(name), pool[next() % pool.size()].get());
    }
    std::stringstream written;
    save_bdds(mgr, written, roots);
    EXPECT_EQ(written.str(), map_dfs_store(mgr, roots));
  }
}

TEST(BddStore, RejectsDuplicateNamesAndRetiredRoots) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_and(mgr->var(0), mgr->var(1));
  std::stringstream out;
  const std::vector<std::pair<std::string, Bdd>> dup = {{"f", f}, {"f", f}};
  EXPECT_THROW(save_bdds(*mgr, out, dup), Error);

  Bdd dead = kBddFalse;
  {
    const BddRef tmp = mgr->bdd_or(mgr->var(2), mgr->var(3));
    dead = tmp.get();
  }
  ASSERT_GT(mgr->garbage_collect(), 0u);
  ASSERT_TRUE(mgr->is_retired(dead));
  const std::vector<std::pair<std::string, Bdd>> retired = {{"zombie", dead}};
  EXPECT_THROW(save_bdds(*mgr, out, retired), Error);
}

TEST(BddStore, TruncatedCorruptedAndMislabeledStreamsAreErrors) {
  auto mgr = std::make_shared<BddManager>(6);
  const BddRef f = mgr->bdd_or(mgr->bdd_and(mgr->var(0), mgr->var(1)),
                               mgr->bdd_xor(mgr->var(2), mgr->var(4)));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(*mgr, stream, roots);
  const std::string blob = stream.str();

  // Truncation at assorted depths: header, node records, checksum tail.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, blob.size() / 3, blob.size() - 1}) {
    std::stringstream in(blob.substr(0, len));
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Error) << "len " << len;
  }
  // A flipped byte anywhere fails — structural validation or the checksum.
  for (const std::size_t at : {std::size_t{10}, blob.size() / 2, blob.size() - 3}) {
    std::string corrupt = blob;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5a);
    std::stringstream in(corrupt);
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Error) << "byte " << at;
  }
  // A wrong magic is rejected up front.
  std::string wrong = blob;
  wrong[0] = 'X';
  std::stringstream in(wrong);
  EXPECT_THROW(static_cast<void>(load_bdds(in)), Error);
}

/// Overwrites a little-endian integer field inside a serialized blob.
template <typename T>
void patch_le(std::string& blob, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), blob.size());
  for (std::size_t i = 0; i < sizeof(T); ++i)
    blob[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

TEST(BddStore, VersionOneStoresAreRefused) {
  // Version 1 checksummed single bytes; its blobs fail on the version field
  // with a typed error before any checksum is compared.
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(3, nullptr, reg);
  std::stringstream stream;
  save_transition_system(*ring.system, stream);
  const std::string blob = stream.str();
  // Each section's version follows its 8-byte magic.
  const std::size_t bdds_at = blob.find("ICTLBDD\n");
  ASSERT_NE(bdds_at, std::string::npos);
  for (const std::size_t at : {std::size_t{8}, bdds_at + 8}) {
    std::string old = blob;
    patch_le<std::uint32_t>(old, at, 1);
    std::stringstream in(old);
    try {
      static_cast<void>(load_transition_system(in, reg));
      FAIL() << "a version-1 field at offset " << at << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported store version 1"), std::string::npos)
          << e.what();
    }
  }
}

/// A store over x0, x1 in the identity order whose one root "f" names the
/// last of `records`.  encode_store seals it, so only the loader's record
/// checks can refuse it.
std::string two_variable_store(const std::vector<std::array<std::uint32_t, 3>>& records) {
  return encode_store({0, 1}, records, {{"f", static_cast<std::uint32_t>(1 + records.size())}});
}

TEST(BddStore, ARecordAtOrBelowItsChildsLevelIsRefused) {
  // x0 over x1 is in order and loads: the blob's framing and seal are right.
  {
    std::stringstream in(two_variable_store({{1, 0, 1}, {0, 0, 2}}));
    const LoadedBdds loaded = load_bdds(in);
    EXPECT_EQ(table_of(*loaded.manager, loaded.root("f"), 2), 0x8u);  // x0 & x1
  }
  // The parent on its child's level, then below it.
  for (const auto& records : {std::vector<std::array<std::uint32_t, 3>>{{1, 0, 1}, {1, 0, 2}},
                              std::vector<std::array<std::uint32_t, 3>>{{0, 0, 1}, {1, 0, 2}}}) {
    std::stringstream in(two_variable_store(records));
    try {
      static_cast<void>(load_bdds(in));
      ADD_FAILURE() << "a record out of the variable order loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("node record violates the variable order"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BddStore, AllocationBombHeadersAreRejectedBeforeReserving) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_and(mgr->var(0), mgr->var(3));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(*mgr, stream, roots);
  const std::string blob = stream.str();

  // Header layout: magic(8) version(4) num_vars(4) order(4*num_vars)
  // num_nodes(8) num_roots(4).  A tiny file declaring ~2^31 nodes or roots
  // must fail the remaining-size cross-check instead of reserving gigabytes
  // (the checksum alone would also catch it — but only AFTER the reserve).
  const std::size_t nodes_at = 8 + 4 + 4 + 4 * mgr->num_vars();
  const std::size_t roots_at = nodes_at + 8;
  {
    std::string bomb = blob;
    patch_le<std::uint64_t>(bomb, nodes_at, std::uint64_t{1} << 31);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_bdds(in));
      FAIL() << "node-count bomb was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::string bomb = blob;
    patch_le<std::uint32_t>(bomb, roots_at, (std::uint32_t{1} << 31) + 7);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_bdds(in));
      FAIL() << "root-count bomb was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
}

/// A read-only stream buffer that refuses to seek, as a pipe does, so the
/// loader cannot check declared counts against the bytes present.
class UnseekableBuf : public std::stringbuf {
 public:
  explicit UnseekableBuf(const std::string& bytes) : std::stringbuf(bytes, std::ios::in) {}

 protected:
  pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
    return pos_type(-1);
  }
  pos_type seekpos(pos_type, std::ios::openmode) override { return pos_type(-1); }
};

TEST(BddStore, UnseekableStreamsSizeNothingByTheirDeclaredCounts) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_and(mgr->var(0), mgr->var(3));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(*mgr, stream, roots);
  const std::string blob = stream.str();

  // An intact store loads through a stream that cannot seek.
  {
    UnseekableBuf buf(blob);
    std::istream in(&buf);
    const LoadedBdds loaded = load_bdds(in);
    EXPECT_EQ(loaded.manager->sat_count_exact(loaded.root("f")), SatCount::make(4));
  }
  // With no remaining size to check against, a count bomb fails as a
  // truncated or corrupt stream (a typed Error, not std::bad_alloc): the
  // loader sizes its vectors by the records and roots it has read, not by
  // the ~2^31 the header declares.
  const std::size_t nodes_at = 8 + 4 + 4 + 4 * mgr->num_vars();
  const std::size_t roots_at = nodes_at + 8;
  std::string node_bomb = blob;
  patch_le<std::uint64_t>(node_bomb, nodes_at, std::uint64_t{1} << 31);
  std::string root_bomb = blob;
  patch_le<std::uint32_t>(root_bomb, roots_at, (std::uint32_t{1} << 31) + 7);
  for (const std::string* bomb : {&node_bomb, &root_bomb}) {
    UnseekableBuf buf(*bomb);
    std::istream in(&buf);
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Error);
  }

  // The system header's own counts likewise: its prop ids, its index set
  // and its parts grow as they are read.  Header layout: magic(8)
  // version(4) num_state_vars(4) kind(4) num_parts(4) num_props(4), the
  // prop ids, then num_indices(4).
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(3, nullptr, reg);
  std::stringstream system_stream;
  save_transition_system(*ring.system, system_stream);
  const std::string system_blob = system_stream.str();
  {
    UnseekableBuf buf(system_blob);
    std::istream in(&buf);
    EXPECT_EQ(load_transition_system(in, reg).num_states(), SatCount::make(3, 3));
  }
  constexpr std::uint32_t kBomb = std::numeric_limits<std::uint32_t>::max() - 2;
  const std::size_t indices_at = 28 + 4 * ring.system->props().size();
  for (const std::size_t at : {std::size_t{20}, std::size_t{24}, indices_at}) {
    std::string bomb = system_blob;
    patch_le<std::uint32_t>(bomb, at, kBomb);
    UnseekableBuf buf(bomb);
    std::istream in(&buf);
    EXPECT_THROW(static_cast<void>(load_transition_system(in, reg)), Error)
        << "count bomb at offset " << at;
  }
}

TEST(BddStoreTransitionSystem, AllocationBombHeadersAreRejected) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 9, 5);
  auto orig = std::make_shared<const TransitionSystem>(from_structure(m));
  std::stringstream stream;
  save_transition_system(*orig, stream);
  const std::string blob = stream.str();

  // Header layout: magic(8) version(4) num_state_vars(4) kind(4)
  // num_parts(4) num_props(4).
  for (const std::size_t at : {std::size_t{20}, std::size_t{24}}) {
    std::string bomb = blob;
    patch_le<std::uint32_t>(bomb, at, (std::uint32_t{1} << 31) + 3);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_transition_system(in, reg));
      FAIL() << "count bomb at offset " << at << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BddStoreTransitionSystem, BridgeSystemRoundTripsPropsAndVerdicts) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 23, 11);
  auto orig = std::make_shared<const TransitionSystem>(from_structure(m));
  static_cast<void>(orig->reachable());

  std::stringstream stream;
  save_transition_system(*orig, stream);
  auto loaded = std::make_shared<const TransitionSystem>(
      load_transition_system(stream, reg));

  EXPECT_EQ(loaded->num_state_vars(), orig->num_state_vars());
  EXPECT_EQ(loaded->partition().size(), orig->partition().size());
  EXPECT_TRUE(loaded->reachable_computed());
  EXPECT_EQ(loaded->num_states(), orig->num_states());
  EXPECT_EQ(loaded->registry(), reg);
  ASSERT_EQ(loaded->props().size(), orig->props().size());
  for (std::size_t i = 0; i < orig->props().size(); ++i) {
    EXPECT_EQ(loaded->props()[i].first, orig->props()[i].first);
    EXPECT_EQ(loaded->manager().sat_count_exact(loaded->props()[i].second),
              orig->manager().sat_count_exact(orig->props()[i].second));
  }

  CtlChecker before(orig, {.unknown_atoms_are_false = true});
  CtlChecker after(loaded, {.unknown_atoms_are_false = true});
  const std::vector<logic::FormulaPtr> formulas = {
      logic::AG(logic::EF(logic::atom("p"))),
      logic::EU(logic::atom("p"), logic::atom("q")),
      logic::AF(logic::make_or(logic::atom("q"), logic::make_not(logic::atom("p")))),
      logic::EG(logic::atom("q"))};
  for (const auto& f : formulas) {
    EXPECT_EQ(after.holds_initially(f), before.holds_initially(f))
        << logic::to_string(f);
    EXPECT_EQ(loaded->count_states_exact(after.sat(f)),
              orig->count_states_exact(before.sat(f)))
        << logic::to_string(f);
  }
}

/// A save_transition_system header written by hand — no props, no index
/// set, no saved reach, partition kind tag `kind` (0, disjunctive, is what
/// the store writes) — so a test can pair it with a BDD section that no
/// TransitionSystem would have produced.
std::string system_header(std::uint32_t num_state_vars, std::uint32_t num_parts,
                          std::uint32_t kind = 0) {
  std::string header = "ICTLTS1\n";
  for (const std::uint32_t field : {2u, num_state_vars, kind, num_parts, 0u, 0u, 0u})
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<char>(field >> (8 * i)));
  const std::uint64_t sum = store_checksum(header);
  for (int i = 0; i < 8; ++i) header.push_back(static_cast<char>(sum >> (8 * i)));
  return header;
}

TEST(BddStoreTransitionSystem, SupportOutsideTheStateVariablesIsATypedError) {
  // A store is outside input.  Two state variables own BDD variables 0-3
  // of a six-variable manager; variable 4 sits below every state pair,
  // where saturation has no level for it.
  auto reg = kripke::make_registry();
  auto mgr = std::make_shared<BddManager>(6);
  const BddRef stay = mgr->bdd_and(mgr->bdd_iff(mgr->var(1), mgr->var(0)),
                                   mgr->bdd_iff(mgr->var(3), mgr->var(2)));
  const BddRef extra = mgr->bdd_and(stay.get(), mgr->var(4));
  const BddRef start = mgr->bdd_and(mgr->nvar(0), mgr->nvar(2));
  const BddRef primed_start = mgr->bdd_and(start.get(), mgr->var(1));
  const struct {
    const char* what;
    Bdd initial;
    Bdd part;
  } cases[] = {{"part over variable 4", start.get(), extra.get()},
               {"initial set over primed variable 1", primed_start.get(), stay.get()}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::stringstream stream;
    stream << system_header(2, 1);
    const std::vector<std::pair<std::string, Bdd>> roots = {{"initial", c.initial},
                                                            {"part/0", c.part}};
    save_bdds(*mgr, stream, roots);
#ifdef ICTL_AUDIT
    // The construction audit already refuses the system.
    EXPECT_THROW(static_cast<void>(load_transition_system(stream, reg)), Error);
#else
    const TransitionSystem loaded = load_transition_system(stream, reg);
    EXPECT_FALSE(loaded.audit().ok());
    EXPECT_THROW(static_cast<void>(loaded.reachable()), ModelError);
    EXPECT_THROW(static_cast<void>(loaded.saturation_events(0)), ModelError);
    EXPECT_FALSE(loaded.reachable_computed());
    EXPECT_TRUE(loaded.manager().check_invariants());
#endif
  }
}

TEST(BddStoreTransitionSystem, ConjunctiveKindTagIsATypedError) {
  // Tag 1 named a conjunctive partition, which no system has.  A header
  // carrying it, over a BDD section that is otherwise a valid system, is
  // refused; the same blob with tag 0 loads.
  auto reg = kripke::make_registry();
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef stay = mgr->bdd_and(mgr->bdd_iff(mgr->var(1), mgr->var(0)),
                                   mgr->bdd_iff(mgr->var(3), mgr->var(2)));
  const BddRef start = mgr->bdd_and(mgr->nvar(0), mgr->nvar(2));
  const std::vector<std::pair<std::string, Bdd>> roots = {{"initial", start.get()},
                                                          {"part/0", stay.get()}};
  for (const std::uint32_t kind : {0u, 1u}) {
    std::stringstream stream;
    stream << system_header(2, 1, kind);
    save_bdds(*mgr, stream, roots);
    if (kind == 0) {
      EXPECT_EQ(load_transition_system(stream, reg).num_states(), SatCount::make(1));
    } else {
      EXPECT_THROW(static_cast<void>(load_transition_system(stream, reg)), ModelError);
    }
  }
}

TEST(BddStoreTransitionSystem, ASeparatedOrderFailsToLoad) {
  // The store saves the variable order with the nodes.  A ring saved after
  // swap_adjacent_levels separated one of its (x, x') pairs is refused at
  // load, where the system saved before the swap reloads.
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(3, nullptr, reg);
  static_cast<void>(ring.system->reachable());
  std::stringstream adjacent;
  save_transition_system(*ring.system, adjacent);
  ring.system->manager().swap_adjacent_levels(1);  // x0' below x1
  std::stringstream separated;
  save_transition_system(*ring.system, separated);
  EXPECT_EQ(load_transition_system(adjacent, reg).num_states(),
            ring.system->num_states());
  EXPECT_THROW(static_cast<void>(load_transition_system(separated, reg)), ModelError);
}

TEST(BddStoreTransitionSystem, M64RingRoundTripIsExactAndFast) {
  auto reg = kripke::make_registry();
  // Best of five on each side, in this one process: five recomputes (build
  // + reach fixpoint, a fresh manager each) against five reloads of the
  // saved store.  A lone interval is at the mercy of one stall.
  constexpr int kRuns = 5;
  std::uint64_t recompute = std::numeric_limits<std::uint64_t>::max();
  std::optional<SymbolicRing> ring;
  for (int run = 0; run < kRuns; ++run) {
    const std::uint64_t t0 = obs::now_ns();
    SymbolicRing built = build_symbolic_ring(64, nullptr, reg);
    static_cast<void>(built.system->num_states());  // forces the fixpoint
    recompute = std::min(recompute, obs::now_ns() - t0);
    ring = std::move(built);
  }
  ASSERT_TRUE(ring->system->reachable_computed());
  const SatCount states = ring->system->num_states();
  // The family count r * 2^r at r = 64 is 2^70 — past the 2^53 double
  // cliff, which is exactly why num_states() went exact.
  EXPECT_EQ(states, SatCount::make(64, 64));
  EXPECT_EQ(states.to_decimal_string(), "1180591620717411303424");
  EXPECT_DOUBLE_EQ(states.to_double(), std::ldexp(1.0, 70));

  std::stringstream stream;
  save_transition_system(*ring->system, stream);
  const std::string blob = stream.str();
  std::uint64_t reload = std::numeric_limits<std::uint64_t>::max();
  std::shared_ptr<const TransitionSystem> loaded;
  for (int run = 0; run < kRuns; ++run) {
    std::istringstream in(blob);
    const std::uint64_t t0 = obs::now_ns();
    auto system = std::make_shared<const TransitionSystem>(load_transition_system(in, reg));
    reload = std::min(reload, obs::now_ns() - t0);
    loaded = std::move(system);
  }
  // Both bests land in the run's XML report (--gtest_output=xml), so the
  // margin over the bound can be read without a failure.
  RecordProperty("best_recompute_us", std::to_string(recompute / 1000));
  RecordProperty("best_reload_us", std::to_string(reload / 1000));

  // The fixpoint came back with the store: identical exact count with no
  // recomputation, and the relation's shape survived.
  EXPECT_TRUE(loaded->reachable_computed());
  EXPECT_EQ(loaded->num_states(), states);
  EXPECT_EQ(loaded->partition().size(), ring->system->partition().size());
  EXPECT_EQ(loaded->num_state_vars(), ring->system->num_state_vars());
  EXPECT_EQ(loaded->manager().sat_count_exact(loaded->initial()),
            ring->system->manager().sat_count_exact(ring->system->initial()));
  for (std::size_t k = 0; k < loaded->partition().size(); ++k)
    EXPECT_EQ(loaded->manager().sat_count_exact(loaded->partition()[k]),
              ring->system->manager().sat_count_exact(ring->system->partition()[k]))
        << "part " << k;

  // The reload rebuilds nodes and runs no computed-table operation, while
  // the recompute's relation and fixpoint run many; and the best reload
  // beats the best recompute by at least 4x (the relation build is linear,
  // so the recompute is a few milliseconds).  Skipped under ICTL_AUDIT:
  // the load path then deep-audits the whole store — including
  // re-verifying the adopted fixpoint via post_image — which is the point
  // of that build, not a perf regression.
#ifndef ICTL_AUDIT
  const BddManager::Stats& loaded_stats = loaded->manager().stats();
  const BddManager::Stats& recomputed_stats = ring->system->manager().stats();
  EXPECT_EQ(loaded_stats.cache_hits + loaded_stats.cache_misses, 0u);
  EXPECT_GT(recomputed_stats.cache_hits + recomputed_stats.cache_misses, 0u);
  EXPECT_LE(reload * 4, recompute)
      << "best reload " << reload / 1000 << " us vs best recompute "
      << recompute / 1000 << " us";
#endif

  // CTL verdicts are identical on the reloaded system.  P2 and I3 are the
  // two specifications the engine pins at large r (the full six-spec
  // Section 5 suite is covered at r = 16 by the differential suite and at
  // r = 64 and 128 by the rotation suite).
  CtlChecker before(ring->system);
  CtlChecker after(loaded);
  for (const auto& f : {ring::property_critical_implies_token(),
                        ring::invariant_one_token()}) {
    const bool expected = before.holds_initially(f);
    EXPECT_EQ(after.holds_initially(f), expected) << logic::to_string(f);
    EXPECT_TRUE(expected) << logic::to_string(f);
  }
}

}  // namespace
}  // namespace ictl::symbolic
