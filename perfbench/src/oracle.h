// Independent answer oracle: a suffix array over the text.
//
// Every query answer and every built index is checked against it. The oracle
// shares no code with the suffix-tree path: the suffix array comes from
// SA-IS (src/sa) and pattern ranges from a plain binary search.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/env.h"
#include "suffixtree/tree_index.h"

namespace perfbench {

/// Order-sensitive 64-bit digests of answers. Never zero, so zero can mark
/// "no answer seen yet".
uint64_t CountDigest(uint64_t count);
uint64_t LocateDigest(const std::vector<uint64_t>& offsets);

class SuffixOracle {
 public:
  explicit SuffixOracle(const std::string& text);

  uint64_t Count(std::string_view pattern) const;
  /// The smallest `limit` occurrence offsets, ascending (Locate's default
  /// kSmallest contract).
  std::vector<uint64_t> Locate(std::string_view pattern,
                               std::size_t limit) const;

  /// Checks the index's every sub-tree against the suffix array: each
  /// sub-tree's leaves in order must be exactly the suffixes that start with
  /// its prefix, its adjacent-leaf depths must be their longest common
  /// prefixes, and sub-trees plus trie leaves must cover each suffix once.
  era::Status CheckIndex(era::Env* env, const era::TreeIndex& index) const;

 private:
  /// Half-open suffix-array range of the suffixes that start with `pattern`.
  std::pair<std::size_t, std::size_t> Range(std::string_view pattern) const;

  const std::string& text_;
  std::vector<uint64_t> sa_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
