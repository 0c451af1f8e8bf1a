// Format compatibility across v1/v2/v3: every builder writes bit-packed v3
// files, and legacy v1/v2 mirrors of the same index load into the identical
// packed served form and answer Count/Locate byte-identically.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "b2st/b2st.h"
#include "era/era_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "trellis/trellis.h"
#include "ukkonen/ukkonen.h"
#include "wavefront/wavefront.h"

namespace era {
namespace {

BuildOptions SmallBuildOptions(Env* env, const std::string& dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = 256 << 10;  // force several sub-trees
  options.input_buffer_bytes = 4096;
  return options;
}

/// Version field of a serialized sub-tree file (header bytes 8..11).
uint32_t FileVersion(MemEnv* env, const std::string& path) {
  std::string raw;
  EXPECT_TRUE(env->ReadFileToString(path, &raw).ok());
  uint32_t version = 0;
  EXPECT_GE(raw.size(), 12u);
  std::memcpy(&version, raw.data() + 8, sizeof(version));
  return version;
}

/// Mirrors `index` into `dst_dir` with every sub-tree rewritten in legacy
/// `version` (1 or 2) through the compat fixture writers.
void MirrorIndexAsLegacy(MemEnv* env, const TreeIndex& index,
                         const std::string& dst_dir, uint32_t version) {
  ASSERT_TRUE(env->CreateDir(dst_dir).ok());
  std::string manifest;
  ASSERT_TRUE(
      env->ReadFileToString(index.dir() + "/MANIFEST", &manifest).ok());
  ASSERT_TRUE(env->WriteFile(dst_dir + "/MANIFEST", manifest).ok());
  for (const SubTreeEntry& entry : index.subtrees()) {
    const std::string src = index.dir() + "/" + entry.filename;
    const std::string dst = dst_dir + "/" + entry.filename;
    std::string prefix;
    if (version == 1) {
      TreeBuffer tree;
      ASSERT_TRUE(ReadSubTree(env, src, &tree, &prefix, nullptr).ok());
      ASSERT_TRUE(WriteSubTreeV1(env, dst, prefix, tree, nullptr).ok());
    } else {
      ServedSubTree served;
      ASSERT_TRUE(ReadServedSubTree(env, src, &served, &prefix, nullptr).ok());
      auto counted = served.Inflate();
      ASSERT_TRUE(counted.ok());
      ASSERT_TRUE(WriteSubTreeV2(env, dst, prefix, *counted, nullptr).ok());
    }
    EXPECT_EQ(FileVersion(env, dst), version);
  }
}

/// Queries both engines with the same pattern set and requires identical
/// answers (the "byte-identical query results" criterion).
void ExpectIdenticalAnswers(QueryEngine* v3, QueryEngine* legacy,
                            const std::string& text) {
  std::vector<std::string> patterns = {"A", "AC", "TTT"};
  for (std::size_t offset : {0u, 17u, 901u, 2503u}) {
    for (std::size_t len : {3u, 9u, 30u}) {
      if (offset + len < text.size()) {
        patterns.push_back(text.substr(offset, len));
      }
    }
  }
  patterns.push_back(text.substr(text.size() - 12));  // suffix incl. terminal
  patterns.push_back("ACGTACGTACGTACGTACGTACGT");     // likely absent
  for (const std::string& pattern : patterns) {
    auto count3 = v3->Count(pattern);
    auto count_legacy = legacy->Count(pattern);
    ASSERT_TRUE(count3.ok()) << count3.status().ToString();
    ASSERT_TRUE(count_legacy.ok()) << count_legacy.status().ToString();
    EXPECT_EQ(*count3, *count_legacy) << "pattern: " << pattern;
    auto hits3 = v3->Locate(pattern);
    auto hits_legacy = legacy->Locate(pattern);
    ASSERT_TRUE(hits3.ok());
    ASSERT_TRUE(hits_legacy.ok());
    EXPECT_EQ(*hits3, *hits_legacy) << "pattern: " << pattern;
    EXPECT_EQ(hits3->size(), *count3) << "pattern: " << pattern;
  }
}

class BuilderFormatTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

StatusOr<BuildResult> BuildWith(int which, const BuildOptions& options,
                                const TextInfo& info) {
  switch (which) {
    case 0: {
      EraBuilder builder(options);
      return builder.Build(info);
    }
    case 1: {
      WaveFrontBuilder builder(options);
      return builder.Build(info);
    }
    default: {
      TrellisBuilder builder(options);
      return builder.Build(info);
    }
  }
}

TEST_P(BuilderFormatTest, EmitsV3AndLegacyMirrorsAnswerAlike) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 4000, 99);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  auto result = BuildWith(GetParam().second,
                          SmallBuildOptions(&env, "/idx_v3"), *info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TreeIndex& index = result->index;
  ASSERT_GT(index.subtrees().size(), 1u);
  MirrorIndexAsLegacy(&env, index, "/idx_v2", 2);
  MirrorIndexAsLegacy(&env, index, "/idx_v1", 1);

  // Every emitted file is v3 and validates; its packed served form is
  // smaller than the counted records it replaces (the cache-density win the
  // format exists for). Each legacy mirror re-encodes at load into the same
  // packed form: same canonical shape, same payload size, same cache charge.
  for (const SubTreeEntry& entry : index.subtrees()) {
    const std::string v3_path = index.dir() + "/" + entry.filename;
    EXPECT_EQ(FileVersion(&env, v3_path), 3u);
    ServedSubTree served;
    std::string prefix;
    ASSERT_TRUE(
        ReadServedSubTree(&env, v3_path, &served, &prefix, nullptr).ok());
    EXPECT_EQ(prefix, entry.prefix);
    EXPECT_EQ(served.LeafCount(), entry.frequency);
    EXPECT_TRUE(ValidateSubTree(served, text, entry.prefix).ok());
    EXPECT_LT(served.MemoryBytes(), served.size() * sizeof(CountedNode));
    auto v3_info = InspectSubTreeFile(&env, v3_path);
    ASSERT_TRUE(v3_info.ok());

    for (const char* dir : {"/idx_v2", "/idx_v1"}) {
      const std::string path = std::string(dir) + "/" + entry.filename;
      ServedSubTree legacy;
      ASSERT_TRUE(
          ReadServedSubTree(&env, path, &legacy, &prefix, nullptr).ok())
          << path;
      EXPECT_EQ(prefix, entry.prefix);
      EXPECT_EQ(TreeToSaLcp(legacy), TreeToSaLcp(served)) << path;
      EXPECT_EQ(legacy.PayloadBytes(), served.PayloadBytes()) << path;
      EXPECT_EQ(legacy.MemoryBytes(), served.MemoryBytes()) << path;
      auto legacy_info = InspectSubTreeFile(&env, path);
      ASSERT_TRUE(legacy_info.ok());
      EXPECT_EQ(legacy_info->serving_bytes, v3_info->serving_bytes) << path;
    }
  }

  auto v3 = QueryEngine::Open(&env, "/idx_v3");
  auto v2 = QueryEngine::Open(&env, "/idx_v2");
  auto v1 = QueryEngine::Open(&env, "/idx_v1");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ExpectIdenticalAnswers(v3->get(), v2->get(), text);
  ExpectIdenticalAnswers(v3->get(), v1->get(), text);
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, BuilderFormatTest,
                         ::testing::Values(std::make_pair("era", 0),
                                           std::make_pair("wavefront", 1),
                                           std::make_pair("trellis", 2)),
                         [](const auto& info) { return info.param.first; });

TEST(B2stFormatTest, ForestFilesRoundTripBothForms) {
  // B2ST emits a forest (no manifest); its files must still round-trip
  // through both readers with identical canonical form.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 3000, 21);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  B2stBuilder builder(SmallBuildOptions(&env, "/b2st"));
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->subtree_files.empty());
  for (const std::string& file : result->subtree_files) {
    const std::string path = result->work_dir + "/" + file;
    EXPECT_EQ(FileVersion(&env, path), 3u);
    TreeBuffer linked;
    ServedSubTree served;
    ASSERT_TRUE(ReadSubTree(&env, path, &linked, nullptr, nullptr).ok());
    ASSERT_TRUE(ReadServedSubTree(&env, path, &served, nullptr, nullptr).ok());
    EXPECT_EQ(TreeToSaLcp(linked), TreeToSaLcp(served));
    EXPECT_EQ(CountLeaves(linked), served.LeafCount());
  }
}

TEST(FormatCompatTest, V1FilesStillReadable) {
  // The full v1 write -> read matrix: a legacy file loads into the linked
  // form verbatim and into the served form via conversion, with the same
  // canonical structure and a correct leaf count.
  std::string text = testing::RandomText(Alphabet::Dna(), 500, 3);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  MemEnv env;
  ASSERT_TRUE(WriteSubTreeV1(&env, "/v1.bin", "AC", *tree, nullptr).ok());
  EXPECT_EQ(FileVersion(&env, "/v1.bin"), 1u);

  TreeBuffer linked;
  std::string prefix;
  ASSERT_TRUE(ReadSubTree(&env, "/v1.bin", &linked, &prefix, nullptr).ok());
  EXPECT_EQ(prefix, "AC");
  EXPECT_EQ(TreeToSaLcp(linked), TreeToSaLcp(*tree));

  ServedSubTree served;
  ASSERT_TRUE(
      ReadServedSubTree(&env, "/v1.bin", &served, &prefix, nullptr).ok());
  EXPECT_EQ(served.size(), tree->size());
  EXPECT_EQ(TreeToSaLcp(served), TreeToSaLcp(*tree));
  EXPECT_EQ(served.LeafCount(), CountLeaves(*tree));
}

}  // namespace
}  // namespace era
