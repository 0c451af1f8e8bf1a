#include "oracle.h"

#include <algorithm>

#include "sa/lcp.h"
#include "sa/sais.h"
#include "suffixtree/canonical.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t CountDigest(uint64_t count) { return Mix(1, count) | 1; }

uint64_t LocateDigest(const std::vector<uint64_t>& offsets) {
  uint64_t h = Mix(2, offsets.size());
  for (uint64_t offset : offsets) h = Mix(h, offset);
  return h | 1;
}

SuffixOracle::SuffixOracle(const std::string& text)
    : text_(text), sa_(era::BuildSuffixArray(text)) {}

std::pair<std::size_t, std::size_t> SuffixOracle::Range(
    std::string_view pattern) const {
  const std::string_view text(text_);
  auto prefix = [&](uint64_t pos) { return text.substr(pos, pattern.size()); };
  auto lo = std::partition_point(sa_.begin(), sa_.end(), [&](uint64_t pos) {
    return prefix(pos) < pattern;
  });
  auto hi = std::partition_point(lo, sa_.end(), [&](uint64_t pos) {
    return prefix(pos) == pattern;
  });
  return {static_cast<std::size_t>(lo - sa_.begin()),
          static_cast<std::size_t>(hi - sa_.begin())};
}

uint64_t SuffixOracle::Count(std::string_view pattern) const {
  auto [lo, hi] = Range(pattern);
  return hi - lo;
}

std::vector<uint64_t> SuffixOracle::Locate(std::string_view pattern,
                                           std::size_t limit) const {
  auto [lo, hi] = Range(pattern);
  std::vector<uint64_t> offsets(sa_.begin() + lo, sa_.begin() + hi);
  std::sort(offsets.begin(), offsets.end());
  if (offsets.size() > limit) offsets.resize(limit);
  return offsets;
}

era::Status SuffixOracle::CheckIndex(era::Env* env,
                                     const era::TreeIndex& index) const {
  if (index.text().length != text_.size()) {
    return era::Status::Corruption("index text length differs from text");
  }
  const std::vector<uint64_t> lcp = era::BuildLcpArray(text_, sa_);
  std::vector<char> covered(text_.size(), 0);
  auto cover = [&](uint64_t pos) {
    if (pos >= covered.size() || covered[pos]) return false;
    covered[pos] = 1;
    return true;
  };

  std::vector<int32_t> subtree_ids;
  std::vector<uint64_t> trie_leaves;
  index.trie().CollectInOrder(0, &subtree_ids, &trie_leaves);
  for (uint64_t pos : trie_leaves) {
    if (!cover(pos)) return era::Status::Corruption("trie leaf repeated");
  }
  for (int32_t id : subtree_ids) {
    const era::SubTreeEntry& entry =
        index.subtrees()[static_cast<uint32_t>(id)];
    ERA_ASSIGN_OR_RETURN(
        auto tree, index.OpenSubTree(env, static_cast<uint32_t>(id), nullptr));
    const era::SaLcp canon = era::TreeToSaLcp(*tree);
    auto [lo, hi] = Range(entry.prefix);
    // The suffix that is exactly the prefix plus the terminal sorts last in
    // the range and may live in the trie instead of the sub-tree.
    if (canon.sa.size() + 1 == hi - lo && covered[sa_[hi - 1]]) --hi;
    if (canon.sa.size() != hi - lo ||
        !std::equal(canon.sa.begin(), canon.sa.end(), sa_.begin() + lo)) {
      return era::Status::Corruption("leaf order differs from suffix array: " +
                                     entry.prefix);
    }
    for (std::size_t i = 0; i < canon.lcp.size(); ++i) {
      if (canon.lcp[i] != lcp[lo + i + 1]) {
        return era::Status::Corruption("leaf depth differs from LCP: " +
                                       entry.prefix);
      }
    }
    for (uint64_t pos : canon.sa) {
      if (!cover(pos)) return era::Status::Corruption("suffix covered twice");
    }
  }
  if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
    return era::Status::Corruption("suffix not covered by the index");
  }
  return era::Status::OK();
}

}  // namespace perfbench
