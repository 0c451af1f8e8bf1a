// Canonical form of a suffix (sub-)tree.
//
// The pair (SA, LCP) — leaf suffixes in DFS order plus the string depth of
// the LCA of each adjacent pair — uniquely determines the shape of a suffix
// tree. Tests compare builders to each other and to the SA-IS oracle through
// this form, independent of node layout.

#ifndef ERA_SUFFIXTREE_CANONICAL_H_
#define ERA_SUFFIXTREE_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"

namespace era {

/// Suffix order plus adjacent-LCA depths. For a sub-tree of prefix p, lcp[i]
/// is an absolute string depth (>= |p| typically, except across the root).
struct SaLcp {
  std::vector<uint64_t> sa;
  std::vector<uint64_t> lcp;  // lcp.size() == sa.size() - 1 (empty if <=1 leaf)

  bool operator==(const SaLcp& other) const = default;
};

/// Extracts (SA, LCP) from a sub-tree by iterative DFS. Assumes children are
/// lexicographically ordered (all builders guarantee this; the validator
/// checks it).
SaLcp TreeToSaLcp(const TreeBuffer& tree);
SaLcp TreeToSaLcp(const CountedTree& tree);
/// Served-form overload: walks the NodeView cursor API directly over the
/// packed records, without inflating.
SaLcp TreeToSaLcp(const ServedSubTree& tree);

/// Leaf count of the tree (number of suffixes indexed). Both overloads scan
/// the node array (the CountedTree one deliberately ignores the stored
/// subtree counts so it can cross-check them).
uint64_t CountLeaves(const TreeBuffer& tree);
uint64_t CountLeaves(const CountedTree& tree);

}  // namespace era

#endif  // ERA_SUFFIXTREE_CANONICAL_H_
