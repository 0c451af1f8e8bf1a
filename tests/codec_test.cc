// Codec-layer tests for the v3 compressed sub-tree format: varint/zigzag
// round-trips, bit-packing at every width (including the 0 and 64 edges),
// randomized fuzz against a reference model, and payload-level corruption —
// every truncation of a valid payload must decode to Corruption, never to a
// wrong tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/codec.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"
#include "tests/test_util.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             129,
                             16383,
                             16384,
                             (1ull << 21) - 1,
                             1ull << 21,
                             (1ull << 35) + 17,
                             (1ull << 56) - 1,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  std::size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, RejectsTruncationAndOverlongEncodings) {
  std::string buf;
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  // Every strict prefix of a varint is a truncation error.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    std::size_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), len, &pos, &out)) << len;
  }
  // Ten continuation bytes: the encoding claims > 64 bits.
  std::string overlong(10, static_cast<char>(0x80));
  std::size_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(overlong.data(), overlong.size(), &pos, &out));
  // A 10th byte above 1 overflows 64 bits even with a clear top bit.
  std::string overflow(9, static_cast<char>(0xFF));
  overflow.push_back(0x02);
  pos = 0;
  EXPECT_FALSE(GetVarint64(overflow.data(), overflow.size(), &pos, &out));
}

TEST(ZigZagTest, RoundTripsAndOrdersSmallMagnitudes) {
  const int64_t values[] = {0, -1, 1, -2, 2, 1000, -1000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes of either sign must stay 1-byte varints.
  EXPECT_LT(ZigZagEncode(-64), 128u);
  EXPECT_LT(ZigZagEncode(63), 128u);
}

TEST(BitWidthTest, MatchesDefinition) {
  EXPECT_EQ(BitWidth(0), 0u);
  EXPECT_EQ(BitWidth(1), 1u);
  EXPECT_EQ(BitWidth(2), 2u);
  EXPECT_EQ(BitWidth(3), 2u);
  EXPECT_EQ(BitWidth(255), 8u);
  EXPECT_EQ(BitWidth(256), 9u);
  EXPECT_EQ(BitWidth(std::numeric_limits<uint64_t>::max()), 64u);
  for (uint32_t w = 1; w <= 64; ++w) {
    EXPECT_EQ(BitWidth(MaskLow(w)), w);
    if (w < 64) EXPECT_EQ(BitWidth(1ull << w), w + 1);
  }
}

TEST(BitPackTest, RoundTripsEveryWidth) {
  // For each width, write boundary values and read them back at computed
  // offsets, exactly as the packed node records do.
  for (uint32_t width = 0; width <= 64; ++width) {
    std::vector<uint64_t> values = {0, MaskLow(width),
                                    MaskLow(width) >> 1,
                                    width == 0 ? 0 : 1ull};
    BitWriter writer;
    for (uint64_t v : values) writer.Put(v, width);
    writer.Finish();
    std::string bytes = writer.TakeBytes();
    bytes.append(kBitReaderPadBytes, '\0');
    BitReader reader(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(reader.Get(i * width, width), values[i])
          << "width=" << width << " i=" << i;
    }
  }
}

TEST(BitPackTest, FuzzMixedWidthRecordsAgainstModel) {
  // Random records of six random-width fields (the v3 node shape), written
  // once and then read back in random access order.
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> widths(6);
    uint32_t record_bits = 0;
    for (uint32_t& w : widths) {
      w = static_cast<uint32_t>(rng() % 65);
      record_bits += w;
    }
    if (record_bits == 0) continue;
    const std::size_t num_records = 1 + rng() % 200;

    std::vector<std::vector<uint64_t>> model(num_records);
    BitWriter writer;
    for (std::size_t r = 0; r < num_records; ++r) {
      for (uint32_t w : widths) {
        const uint64_t v = rng() & MaskLow(w);
        model[r].push_back(v);
        writer.Put(v, w);
      }
    }
    writer.Finish();
    std::string bytes = writer.TakeBytes();
    EXPECT_EQ(bytes.size(),
              (static_cast<uint64_t>(record_bits) * num_records + 7) / 8);
    bytes.append(kBitReaderPadBytes, '\0');
    BitReader reader(bytes.data(), bytes.size());

    std::vector<std::size_t> order(num_records);
    for (std::size_t r = 0; r < num_records; ++r) order[r] = r;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t r : order) {
      uint64_t bit = static_cast<uint64_t>(r) * record_bits;
      for (std::size_t f = 0; f < widths.size(); ++f) {
        EXPECT_EQ(reader.Get(bit, widths[f]), model[r][f])
            << "round=" << round << " record=" << r << " field=" << f;
        bit += widths[f];
      }
    }
  }
}

CountedTree EncodableTree(uint64_t text_bytes, uint64_t seed) {
  std::string text = testing::RandomText(Alphabet::Dna(), text_bytes, seed);
  auto linked = BuildUkkonenTree(text);
  EXPECT_TRUE(linked.ok());
  auto counted = BuildCountedTree(*linked);
  EXPECT_TRUE(counted.ok());
  return std::move(*counted);
}

TEST(CompressedPayloadTest, RoundTripsExactly) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    CountedTree tree = EncodableTree(1500, seed);
    std::string payload = ServedSubTree::EncodePayload(tree);
    auto packed = ServedSubTree::FromPayload(payload, tree.size());
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    EXPECT_EQ(packed->size(), tree.size());
    EXPECT_EQ(packed->LeafCount(), tree.LeafCount());
    // Deterministic encoding: same tree, same bytes.
    EXPECT_EQ(ServedSubTree::EncodePayload(tree), payload);

    auto inflated = packed->Inflate();
    ASSERT_TRUE(inflated.ok());
    ASSERT_EQ(inflated->size(), tree.size());
    for (uint32_t i = 0; i < tree.size(); ++i) {
      const CountedNode& a = tree.node(i);
      const CountedNode& b = inflated->node(i);
      EXPECT_EQ(a.edge_start, b.edge_start);
      EXPECT_EQ(a.leaf_or_count, b.leaf_or_count);
      EXPECT_EQ(a.edge_len, b.edge_len);
      EXPECT_EQ(a.children_begin, b.children_begin);
      EXPECT_EQ(a.num_children, b.num_children);
    }
  }
}

TEST(CompressedPayloadTest, EveryTruncationIsCorruption) {
  CountedTree tree = EncodableTree(600, 5);
  std::string payload = ServedSubTree::EncodePayload(tree);
  ASSERT_GT(payload.size(), 80u);
  // Check every length near the structural boundaries plus a sample of the
  // rest (full O(n^2) is slow for no extra coverage).
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (len > 100 && len + 100 < payload.size() && len % 37 != 0) continue;
    auto packed =
        ServedSubTree::FromPayload(payload.substr(0, len), tree.size());
    EXPECT_FALSE(packed.ok()) << "len=" << len;
    if (!packed.ok()) {
      EXPECT_TRUE(packed.status().IsCorruption()) << "len=" << len;
    }
  }
  // Trailing garbage is just as dead.
  auto padded = ServedSubTree::FromPayload(payload + "x", tree.size());
  EXPECT_FALSE(padded.ok());
  // A wrong node count cannot pass the size checks.
  EXPECT_FALSE(ServedSubTree::FromPayload(payload, tree.size() - 1).ok());
  EXPECT_FALSE(ServedSubTree::FromPayload(payload, tree.size() + 1).ok());
}

TEST(CompressedPayloadTest, HeaderTamperingIsCorruption) {
  CountedTree tree = EncodableTree(600, 11);
  std::string payload = ServedSubTree::EncodePayload(tree);
  // Flipping any declared width breaks the w == BitWidth(max) rule or the
  // total-size equation; both must be caught.
  for (std::size_t off = 60; off < 66; ++off) {  // the six width bytes
    std::string bad = payload;
    bad[off] = static_cast<char>(bad[off] + 1);
    EXPECT_FALSE(ServedSubTree::FromPayload(bad, tree.size()).ok())
        << "width byte " << off;
  }
}

TEST(CompressedPayloadTest, LazyLeafRangesMatchFullDecode) {
  CountedTree tree = EncodableTree(2000, 13);
  std::string payload = ServedSubTree::EncodePayload(tree);
  auto packed = ServedSubTree::FromPayload(std::move(payload), tree.size());
  ASSERT_TRUE(packed.ok());

  std::vector<uint64_t> all;
  ASSERT_TRUE(packed
                  ->DecodeLeafRange(0, packed->LeafCount(), nullptr,
                                    packed->LeafCount(), &all)
                  .ok());
  ASSERT_EQ(all.size(), packed->LeafCount());
  for (uint64_t rank = 0; rank < packed->LeafCount(); rank += 17) {
    EXPECT_EQ(packed->LeafId(rank), all[rank]);
  }

  std::mt19937_64 rng(99);
  for (int round = 0; round < 40; ++round) {
    const uint64_t begin = rng() % all.size();
    const uint64_t count = rng() % (all.size() - begin + 1);
    const std::size_t limit = static_cast<std::size_t>(rng() % (count + 2));
    std::vector<uint64_t> got;
    ASSERT_TRUE(
        packed->DecodeLeafRange(begin, count, nullptr, limit, &got).ok());
    const std::size_t expect = std::min<std::size_t>(limit, count);
    ASSERT_EQ(got.size(), expect);
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(got[i], all[begin + i]);
    }
  }
}

}  // namespace
}  // namespace era
