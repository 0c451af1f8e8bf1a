// The served sub-tree: the format-v3 bit-packed form, the only form any
// sub-tree takes in memory. It is cached and walked without inflating back
// to CountedNode; v1/v2 files are re-encoded into it when they load.
//
// On-disk payload (after the shared 32-byte file header + prefix bytes):
//
//   [PackedHeader]                 72 bytes, POD, little-endian
//   [bit-packed node records]      node i at bit i * record_bits; fields in
//                                  order edge_start, edge_len, count,
//                                  leaf_ref, children_begin, num_children,
//                                  each in its width-minimal bit width
//                                  (BitWidth of the per-subtree maximum,
//                                  recorded in the header)
//   [leaf restart array]           num_restarts x uint64 byte offsets into
//                                  the leaf stream, one per restart block
//   [leaf stream]                  leaf suffix offsets in SLOT order; blocks
//                                  of leaf_restart_interval values, each
//                                  block an absolute varint followed by
//                                  zigzag-delta varints
//
// Field semantics lean on the canonical counted DFS layout (node.h): the
// strict descendants of node u occupy one contiguous slot range starting at
// children_begin(u), so the leaves under u are exactly the leaf slots with
// slot-order ranks [leaf_ref(u), leaf_ref(u) + count(u)) where
//   leaf_ref(leaf)     = number of leaf slots before it (its slot rank), and
//   leaf_ref(internal) = number of leaf slots before children_begin(u).
// That turns CollectLeaves into a lazy range decode of the leaf stream —
// restart-seek to the first block, stop after `limit` values — and keeps
// Count a pure record read (`count` is the stored subtree leaf count).
//
// Everything here is validated once in FromPayload (widths match recorded
// maxima, structural pass mirroring ValidateCountedLayout, leaf-stream
// restarts and monotone block structure); after that node()/LeafId() are
// infallible and DecodeLeafRange only fails on cancellation.

#ifndef ERA_SUFFIXTREE_COMPRESSED_TREE_H_
#define ERA_SUFFIXTREE_COMPRESSED_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "suffixtree/tree_buffer.h"

namespace era {

struct QueryContext;

/// Fixed per-subtree header at the start of a v3 payload.
struct PackedHeader {
  uint64_t leaf_count = 0;         // leaf slots (== root subtree count)
  uint64_t max_edge_start = 0;     // per-field maxima the widths derive from
  uint64_t max_count = 0;
  uint64_t max_leaf_ref = 0;
  uint64_t leaf_stream_bytes = 0;  // varint leaf stream size in bytes
  uint32_t max_edge_len = 0;
  uint32_t max_children_begin = 0;
  uint32_t max_num_children = 0;
  uint32_t leaf_restart_interval = 0;  // values per restart block
  uint32_t num_restarts = 0;           // == ceil(leaf_count / interval)
  uint8_t w_edge_start = 0;            // bit widths; w_x == BitWidth(max_x)
  uint8_t w_edge_len = 0;
  uint8_t w_count = 0;
  uint8_t w_leaf_ref = 0;
  uint8_t w_children_begin = 0;
  uint8_t w_num_children = 0;
  uint8_t pad[6] = {0, 0, 0, 0, 0, 0};
};

static_assert(sizeof(PackedHeader) == 72, "PackedHeader must stay 72 bytes");

/// Decoded view of one packed node. Mirrors CountedNode plus the leaf
/// reference; cheap to return by value.
struct NodeView {
  uint64_t edge_start = 0;
  uint64_t count = 0;     // leaves in this node's subtree (1 for a leaf)
  uint64_t leaf_ref = 0;  // see file comment
  uint32_t edge_len = 0;
  uint32_t children_begin = 0;
  uint32_t num_children = 0;

  bool IsLeaf() const { return num_children == 0; }
};

/// One request's answer inside a shared leaf buffer: `buffer[offset,
/// offset + count)` are the suffix offsets of the leaves under the
/// requested slot, in slot order.
struct LeafSlice {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// The one form every sub-tree is served and cached in: a validated v3
/// payload walked in place — random node access via BitReader, lazy
/// leaf-range decode via the restart array. v1/v2 files are re-encoded into
/// it at load (serializer.h). Immutable after FromPayload.
class ServedSubTree {
 public:
  ServedSubTree() = default;
  ServedSubTree(ServedSubTree&&) = default;
  ServedSubTree& operator=(ServedSubTree&&) = default;

  /// Encodes `tree` (canonical counted layout; caller has validated it) into
  /// a v3 payload. Deterministic: same tree, same bytes.
  static std::string EncodePayload(const CountedTree& tree);

  /// Parses + fully validates a payload of `node_count` nodes. Returns
  /// Corruption on any structural or size inconsistency. Takes the payload
  /// by value and keeps it (plus reader pad) as the resident blob.
  static StatusOr<ServedSubTree> FromPayload(std::string payload,
                                             uint64_t node_count);

  uint32_t size() const { return node_count_; }
  uint64_t LeafCount() const { return header_.leaf_count; }
  /// Resident bytes — what the byte-budgeted cache charges.
  uint64_t MemoryBytes() const { return blob_.size() + sizeof(*this); }
  /// Payload bytes as stored on disk (no reader pad).
  uint64_t PayloadBytes() const { return payload_bytes_; }

  /// Decodes node `i` (i < size(); infallible post-validation).
  NodeView node(uint32_t i) const;

  /// Suffix offset of the leaf with slot-order rank `rank` (< LeafCount()).
  uint64_t LeafId(uint64_t rank) const;
  /// Suffix offset of leaf `v` (v.IsLeaf() must hold).
  uint64_t LeafIdOf(const NodeView& v) const { return LeafId(v.leaf_ref); }

  /// Appends the suffix offsets of leaf ranks [rank_begin, rank_begin +
  /// count) to `out`, in slot order, stopping early once `limit` total
  /// values have been appended this call. `ctx` (nullable) is checked
  /// periodically; its error aborts the decode.
  Status DecodeLeafRange(uint64_t rank_begin, uint64_t count,
                         const QueryContext* ctx, std::size_t limit,
                         std::vector<uint64_t>* out) const;

  /// Appends the suffix offsets of all leaves under slot `slot` to `out`
  /// (slot order), stopping after `limit` appended values. `ctx` nullable.
  Status CollectLeaves(uint32_t slot, const QueryContext* ctx,
                       std::size_t limit, std::vector<uint64_t>* out) const;

  /// Batched leaf enumeration: resolves every slot in `slots` in ONE pass
  /// over the leaf stream instead of one CollectLeaves per slot. Appends
  /// leaves to `buffer` and fills `slices` (index-aligned with `slots`;
  /// offsets are absolute indices into `buffer`). Exploits the
  /// laminar-family property of match loci — two slots' leaf ranges are
  /// nested or disjoint, never partially overlapping — so one restart-block
  /// decode per maximal run serves every request nested in it. Duplicate
  /// slots are fine and share a slice. `ctx` (nullable) is checked
  /// periodically.
  Status CollectLeafSlices(const std::vector<uint32_t>& slots,
                           const QueryContext* ctx,
                           std::vector<uint64_t>* buffer,
                           std::vector<LeafSlice>* slices) const;

  /// Exact reconstruction of the counted form this payload was encoded from
  /// (byte-identical nodes). Used by consumers that need CountedNode — the
  /// validator and the linked-form reader (TRELLIS merge, compat fixtures).
  StatusOr<CountedTree> Inflate() const;

  const PackedHeader& header() const { return header_; }

 private:
  std::string blob_;  // payload + kBitReaderPadBytes zero tail
  PackedHeader header_;
  uint64_t payload_bytes_ = 0;
  uint64_t records_off_ = 0;   // byte offset of packed records in blob_
  uint64_t restarts_off_ = 0;  // byte offset of the restart array
  uint64_t leaves_off_ = 0;    // byte offset of the leaf stream
  uint32_t node_count_ = 0;
  uint32_t record_bits_ = 0;   // sum of the six field widths
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_COMPRESSED_TREE_H_
