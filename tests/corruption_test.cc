// On-disk damage on the read path: checksums turn bit flips and truncation
// into Corruption (never silent wrong answers), structural checks do the same
// for CRC-valid malformed legacy (v1/v2) files, and the QueryEngine degrades
// per-query — a damaged sub-tree quarantines itself while the rest of the
// index keeps serving, and a repaired file serves again without a restart.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "era/era_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_index.h"
#include "tests/test_util.h"
#include "text/corpus.h"

namespace era {
namespace {

/// A small built index on MemEnv shared by the cases in this file.
struct BuiltIndex {
  MemEnv env;
  TextInfo info;
  std::vector<SubTreeEntry> subtrees;

  BuiltIndex() {
    std::string text = testing::RepetitiveText(Alphabet::Dna(), 12000, 31);
    auto materialized =
        MaterializeText(&env, "/text", Alphabet::Dna(), text);
    EXPECT_TRUE(materialized.ok());
    info = *materialized;
    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = 2 << 20;
    options.input_buffer_bytes = 4096;
    EraBuilder builder(options);
    auto result = builder.Build(info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    subtrees = result->index.subtrees();
    EXPECT_GE(subtrees.size(), 2u)
        << "the degradation cases need a healthy sub-tree to keep serving";
  }

  /// Copies the clean index into a fresh MemEnv so each case damages its
  /// own copy.
  void CloneInto(MemEnv* dst) const {
    auto copy = [&](const std::string& path) {
      std::string bytes;
      ASSERT_TRUE(
          const_cast<MemEnv&>(env).ReadFileToString(path, &bytes).ok());
      ASSERT_TRUE(dst->WriteFile(path, bytes).ok());
    };
    copy("/text");
    copy("/idx/MANIFEST");
    for (const SubTreeEntry& entry : subtrees) copy("/idx/" + entry.filename);
  }
};

BuiltIndex& Built() {
  static BuiltIndex* built = new BuiltIndex();
  return *built;
}

TEST(CorruptionTest, SubTreeBitFlipsAreCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t offset :
       {std::size_t{0}, clean.size() / 4, clean.size() / 2,
        clean.size() - 1}) {
    std::string damaged = clean;
    damaged[offset] ^= 0x10;
    ASSERT_TRUE(env.WriteFile(path, damaged).ok());
    ServedSubTree tree;
    Status s = ReadServedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "bit flip at offset " << offset << " undetected";
    EXPECT_TRUE(s.IsCorruption())
        << "offset " << offset << ": " << s.ToString();
  }
}

TEST(CorruptionTest, TruncatedSubTreeIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, clean.size() / 2,
                           clean.size() - 1}) {
    ASSERT_TRUE(env.WriteFile(path, clean.substr(0, keep)).ok());
    ServedSubTree tree;
    Status s = ReadServedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "truncation to " << keep << " bytes undetected";
    EXPECT_TRUE(s.IsCorruption()) << "keep=" << keep << ": " << s.ToString();
  }
}

/// Counted node helpers for hand-assembled legacy (v2) node arrays.
void SetInternal(CountedTree* tree, uint32_t i, uint32_t children_begin,
                 uint32_t num_children, uint64_t leaves) {
  CountedNode& n = tree->mutable_nodes()[i];
  n.children_begin = children_begin;
  n.num_children = num_children;
  n.leaf_or_count = leaves;
  n.edge_len = i == 0 ? 0 : 1;
}

void SetLeaf(CountedTree* tree, uint32_t i, uint64_t suffix) {
  CountedNode& n = tree->mutable_nodes()[i];
  n.leaf_or_count = suffix;
  n.edge_len = 1;
}

TEST(CorruptionTest, CrcValidLegacyMutantsAreCorruption) {
  // The CRC is computed over the mutated payload, so only the structural
  // checks of the legacy load path (ValidateCountedLayout for v2,
  // BuildCountedTree for v1) stand between these files and the packed
  // encoder. The out-of-bounds child block would make the encoder read past
  // its arrays, which the ASan build reports.
  MemEnv env;
  std::vector<std::pair<std::string, CountedTree>> v2_mutants;
  {
    // Interleaved descendant blocks: per-node bounds and counts hold, but
    // node 2's leaf sits inside node 1's descendant range.
    CountedTree t;
    t.mutable_nodes().resize(7);
    SetInternal(&t, 0, 1, 2, 3);
    SetInternal(&t, 1, 3, 1, 2);
    SetInternal(&t, 2, 4, 1, 1);
    SetInternal(&t, 3, 5, 2, 2);
    SetLeaf(&t, 4, 40);
    SetLeaf(&t, 5, 50);
    SetLeaf(&t, 6, 60);
    v2_mutants.emplace_back("interleaved", std::move(t));
  }
  {
    // A child block far past the node array.
    CountedTree t;
    t.mutable_nodes().resize(3);
    SetInternal(&t, 0, 1000, 2, 2);
    SetLeaf(&t, 1, 0);
    SetLeaf(&t, 2, 1);
    v2_mutants.emplace_back("out_of_bounds", std::move(t));
  }
  {
    // Stored leaf count disagrees with the children's.
    CountedTree t;
    t.mutable_nodes().resize(3);
    SetInternal(&t, 0, 1, 2, 5);
    SetLeaf(&t, 1, 0);
    SetLeaf(&t, 2, 1);
    v2_mutants.emplace_back("bad_count", std::move(t));
  }
  for (const auto& [name, tree] : v2_mutants) {
    const std::string path = "/v2_" + name;
    ASSERT_TRUE(WriteSubTreeV2(&env, path, "", tree, nullptr).ok());
    ServedSubTree served;
    Status s = ReadServedSubTree(&env, path, &served, nullptr, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << name << ": " << s.ToString();
  }

  std::vector<std::pair<std::string, TreeBuffer>> v1_mutants;
  {
    TreeBuffer cyclic;  // a child links back to the root
    const uint32_t a = cyclic.AddNode();
    cyclic.node(0).first_child = a;
    cyclic.node(a).leaf_id = kNoLeaf;
    cyclic.node(a).first_child = 0;
    v1_mutants.emplace_back("cyclic", std::move(cyclic));
  }
  v1_mutants.emplace_back("childless_root", TreeBuffer());
  {
    TreeBuffer orphan;  // a node never linked under the root
    const uint32_t leaf = orphan.AddNode();
    orphan.node(leaf).leaf_id = 0;
    orphan.node(leaf).edge_len = 1;
    orphan.node(0).first_child = leaf;
    orphan.AddNode();
    v1_mutants.emplace_back("orphan", std::move(orphan));
  }
  {
    TreeBuffer dangling;  // a child id past the node array
    dangling.node(0).first_child = 77;
    v1_mutants.emplace_back("dangling", std::move(dangling));
  }
  for (const auto& [name, tree] : v1_mutants) {
    const std::string path = "/v1_" + name;
    ASSERT_TRUE(WriteSubTreeV1(&env, path, "", tree, nullptr).ok());
    ServedSubTree served;
    Status s = ReadServedSubTree(&env, path, &served, nullptr, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << name << ": " << s.ToString();
  }
}

TEST(CorruptionTest, ManifestDamageIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString("/idx/MANIFEST", &clean).ok());

  // Flip one character of a recorded frequency.
  std::string damaged = clean;
  std::size_t pos = damaged.find("subtree: ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t digit = damaged.find_first_of("0123456789", pos);
  ASSERT_NE(digit, std::string::npos);
  damaged[digit] = damaged[digit] == '1' ? '2' : '1';
  ASSERT_TRUE(env.WriteFile("/idx/MANIFEST", damaged).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());

  // Truncate away the trailing checksum line.
  std::size_t crc_line = clean.rfind("crc: ");
  ASSERT_NE(crc_line, std::string::npos);
  ASSERT_TRUE(
      env.WriteFile("/idx/MANIFEST", clean.substr(0, crc_line)).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());
}

TEST(CorruptionTest, QueryEngineQuarantinesAndRecoversWithoutRestart) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Patterns one symbol longer than a sub-tree's prefix force the engine to
  // open that sub-tree (the trie alone cannot answer them).
  const SubTreeEntry& victim = Built().subtrees[0];
  const SubTreeEntry& healthy = Built().subtrees[1];
  std::string victim_pattern = victim.prefix + "A";
  std::string healthy_pattern = healthy.prefix + "A";

  std::string victim_path = "/idx/" + victim.filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(victim_path, &clean).ok());
  std::string damaged = clean;
  damaged[damaged.size() / 2] ^= 0x08;
  ASSERT_TRUE(env.WriteFile(victim_path, damaged).ok());

  // The damaged sub-tree fails ITS queries with Unavailable...
  auto count = (*engine)->Count(victim_pattern);
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto located = (*engine)->Locate(victim_pattern);
  EXPECT_TRUE(located.status().IsUnavailable());
  EXPECT_GE((*engine)->stats().unavailable_queries, 2u);
  auto quarantine = (*engine)->quarantine();
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.begin()->first, 0u) << "sub-tree 0 is the victim";
  EXPECT_GE(quarantine.begin()->second, 2u);

  // ...while patterns routed to healthy sub-trees keep serving.
  auto healthy_count = (*engine)->Count(healthy_pattern);
  ASSERT_TRUE(healthy_count.ok()) << healthy_count.status().ToString();

  // Repair the file: the very next query succeeds on the same engine —
  // proof that the failed load was never admitted to the cache.
  ASSERT_TRUE(env.WriteFile(victim_path, clean).ok());
  auto recovered = (*engine)->Count(victim_pattern);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // And the answer agrees with a fresh engine over the clean index.
  MemEnv fresh_env;
  Built().CloneInto(&fresh_env);
  auto fresh = QueryEngine::Open(&fresh_env, "/idx");
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->Count(victim_pattern);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*recovered, *expected);
}

TEST(CorruptionTest, MissingSubTreeFileIsUnavailableNotFatal) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());
  const SubTreeEntry& victim = Built().subtrees[0];
  ASSERT_TRUE(env.DeleteFile("/idx/" + victim.filename).ok());
  auto count = (*engine)->Count(victim.prefix + "A");
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto healthy = (*engine)->Count(Built().subtrees[1].prefix + "A");
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
}

TEST(CorruptionTest, DictionaryCountsAnUnavailableTrieLocateOnce) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());
  const SubTreeEntry& victim = Built().subtrees[0];
  ASSERT_TRUE(env.DeleteFile("/idx/" + victim.filename).ok());
  // The sub-tree's own prefix ends inside the trie, so a locate for it
  // walks the trie's entries and fails opening the missing sub-tree.
  const std::string pattern = victim.prefix;
  ASSERT_TRUE((*engine)->index().Route(pattern).pattern_exhausted);

  const QueryStats before_single = (*engine)->stats();
  auto located = (*engine)->Locate(pattern);
  EXPECT_TRUE(located.status().IsUnavailable()) << located.status().ToString();
  const QueryStats after_single = (*engine)->stats();

  DictMatchOptions locate_mode;
  locate_mode.locate = true;
  auto outcomes = (*engine)->MatchDictionary({pattern}, locate_mode);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 1u);
  EXPECT_TRUE((*outcomes)[0].status.IsUnavailable())
      << (*outcomes)[0].status.ToString();
  const QueryStats after_dict = (*engine)->stats();

  // The dictionary bills the failed item exactly like the per-pattern call.
  EXPECT_EQ(after_dict.queries - after_single.queries,
            after_single.queries - before_single.queries);
  EXPECT_EQ(after_dict.unavailable_queries - after_single.unavailable_queries,
            after_single.unavailable_queries -
                before_single.unavailable_queries);
}

}  // namespace
}  // namespace era
