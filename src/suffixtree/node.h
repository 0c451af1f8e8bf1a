// Suffix-tree node layouts.
//
// Two 32-byte POD node formats share this header:
//
//  * TreeNode — the builder-side linked layout (serialized verbatim only by
//    legacy format v1). Edges are stored on their child node as
//    (edge_start, edge_len) offsets into the input string S — the O(n)
//    representation of Section 2. Children are linked through
//    first_child/next_sibling in lexicographic order of their first edge
//    symbol, so a depth-first traversal emits suffixes in lexicographic
//    order.
//
//  * CountedNode — the counted layout (serialized verbatim only by legacy
//    format v2). Children are stored contiguously, sorted by first edge
//    symbol, and every node carries its subtree leaf count. It is the
//    intermediate every sub-tree passes through on its way to the packed
//    v3 form (suffixtree/compressed_tree.h), which bit-packs these same
//    records and is the only form that is written by builders, cached and
//    queried.
//
// The paper sizes sub-trees as 2 * f_p * sizeof(tree node); FM derives from
// sizeof(TreeNode) (see era/memory_layout.h).

#ifndef ERA_SUFFIXTREE_NODE_H_
#define ERA_SUFFIXTREE_NODE_H_

#include <cstdint>

namespace era {

/// The sub-tree file format builders write (the value matches the file
/// header's version field). It has one value because every builder writes
/// v3; it remains only as the type of BuildOptions::format (see there).
enum class SubTreeFormat : uint32_t {
  kPacked = 3,
};

/// Sentinel for "no node".
inline constexpr uint32_t kNilNode = 0xFFFFFFFFu;
/// Sentinel leaf id for internal nodes.
inline constexpr uint64_t kNoLeaf = ~0ull;

/// One suffix-tree node (32 bytes, trivially copyable; serialized verbatim).
struct TreeNode {
  /// Offset in S of the first symbol of the incoming edge label.
  uint64_t edge_start = 0;
  /// For leaves: starting offset of the suffix this leaf represents.
  /// kNoLeaf for internal nodes.
  uint64_t leaf_id = kNoLeaf;
  /// Length of the incoming edge label (0 only for the root).
  uint32_t edge_len = 0;
  /// First child in lexicographic order; kNilNode if none.
  uint32_t first_child = kNilNode;
  /// Next sibling in lexicographic order; kNilNode if last.
  uint32_t next_sibling = kNilNode;
  /// Reserved/padding (keeps the struct at 32 bytes).
  uint32_t reserved = 0;

  bool IsLeaf() const { return leaf_id != kNoLeaf; }
};

static_assert(sizeof(TreeNode) == 32, "TreeNode must stay 32 bytes");

/// One node of the counted layout (32 bytes, trivially copyable; the record
/// of legacy format v2 and the input of the packed v3 encoder).
///
/// The writer lays nodes out depth-first, reserving each node's child block
/// the moment the node is first visited. Two structural guarantees follow,
/// and the reader enforces both:
///   * the children of a node occupy the contiguous slot range
///     [children_begin, children_begin + num_children), sorted by the first
///     symbol of their incoming edge;
///   * the strict descendants of a node occupy one contiguous slot range
///     starting at children_begin, so collecting the occurrences under a
///     match is a linear scan that stops after subtree_leaf_count leaves.
/// children_begin > own index for every internal node, which also bounds
/// every traversal (no cycles are representable).
struct CountedNode {
  /// Offset in S of the first symbol of the incoming edge label.
  uint64_t edge_start = 0;
  /// Leaves (num_children == 0): starting offset of the suffix this leaf
  /// represents. Internal nodes: number of leaves in this node's subtree —
  /// the Count answer for a pattern ending on this node's incoming edge.
  uint64_t leaf_or_count = 0;
  /// Length of the incoming edge label (0 only for the root).
  uint32_t edge_len = 0;
  /// First slot of the contiguous child block (internal nodes only).
  uint32_t children_begin = 0;
  /// Number of children; 0 discriminates leaves.
  uint32_t num_children = 0;
  /// Reserved/padding (keeps the struct at 32 bytes). Earmarked for caching
  /// the first symbol of the incoming edge, which would make child binary
  /// search text-free; the writer cannot populate it today because it has no
  /// text access (readers resolve first symbols through their session's
  /// buffered reader instead).
  uint32_t reserved = 0;

  bool IsLeaf() const { return num_children == 0; }
  /// Suffix offset of a leaf (meaningless for internal nodes).
  uint64_t leaf_id() const { return leaf_or_count; }
  /// Leaves in this node's subtree (1 for a leaf).
  uint64_t LeafCount() const { return IsLeaf() ? 1 : leaf_or_count; }
};

static_assert(sizeof(CountedNode) == 32, "CountedNode must stay 32 bytes");

}  // namespace era

#endif  // ERA_SUFFIXTREE_NODE_H_
