// Log-structured layer: on-disk codecs, segment writer behaviour (chunking,
// rollover, pending reads), usage-table accounting, log scanning, and the
// block cache's record-length check.
#include <gtest/gtest.h>

#include "src/cache/block_cache.h"
#include "src/lfs/format.h"
#include "src/lfs/scan.h"
#include "src/lfs/segment_writer.h"
#include "src/lfs/usage_table.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class LfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>();
    device_ = std::make_unique<BlockDevice>((16ull << 20) / kSectorSize, clock_.get());
    sb_.total_sectors = device_->sector_count();
    sb_.segment_sectors = 256;  // 128KB segments
    sb_.checkpoint_a = 1;
    sb_.checkpoint_b = 2;
    sb_.checkpoint_sectors = 1;
    sb_.first_segment = 3;
    sb_.segment_count =
        static_cast<uint32_t>((sb_.total_sectors - sb_.first_segment) / sb_.segment_sectors);
    sut_ = std::make_unique<SegmentUsageTable>(sb_.segment_count, sb_.segment_sectors);
    writer_ = std::make_unique<SegmentWriter>(device_.get(), &sb_, sut_.get(), clock_.get(), 1);
  }

  Bytes Block(uint8_t fill) { return Bytes(kBlockSize, fill); }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BlockDevice> device_;
  Superblock sb_;
  std::unique_ptr<SegmentUsageTable> sut_;
  std::unique_ptr<SegmentWriter> writer_;
};

TEST_F(LfsTest, SuperblockRoundTrip) {
  Bytes encoded = sb_.Encode();
  ASSERT_EQ(encoded.size(), kSectorSize);
  ASSERT_OK_AND_ASSIGN(Superblock decoded, Superblock::Decode(encoded));
  EXPECT_EQ(decoded.total_sectors, sb_.total_sectors);
  EXPECT_EQ(decoded.segment_sectors, sb_.segment_sectors);
  EXPECT_EQ(decoded.segment_count, sb_.segment_count);
  EXPECT_EQ(decoded.first_segment, sb_.first_segment);

  encoded[10] ^= 0xFF;
  EXPECT_EQ(Superblock::Decode(encoded).status().code(), ErrorCode::kDataCorruption);
}

TEST_F(LfsTest, ChunkSummaryRoundTrip) {
  ChunkSummary summary;
  summary.seq = 42;
  summary.write_time = 12345;
  summary.records.push_back(ChunkRecord{RecordKind::kData, 17, 3, 8});
  summary.records.push_back(ChunkRecord{RecordKind::kJournal, 17, 0, 1});
  ASSERT_OK_AND_ASSIGN(Bytes encoded, summary.Encode());
  ASSERT_EQ(encoded.size(), kSectorSize);
  ASSERT_OK_AND_ASSIGN(ChunkSummary decoded, ChunkSummary::Decode(encoded));
  EXPECT_EQ(decoded.seq, 42u);
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[0].object_id, 17u);
  EXPECT_EQ(decoded.records[0].sectors, 8u);
  EXPECT_EQ(decoded.PayloadSectors(), 9u);
}

TEST_F(LfsTest, AppendAssignsSequentialAddresses) {
  ASSERT_OK_AND_ASSIGN(DiskAddr a, writer_->Append(RecordKind::kData, 1, 0, Block(0xAA)));
  ASSERT_OK_AND_ASSIGN(DiskAddr b, writer_->Append(RecordKind::kData, 1, 1, Block(0xBB)));
  // Payloads are consecutive (summary sector sits at the chunk head).
  EXPECT_EQ(b, a + kSectorsPerBlock);
}

TEST_F(LfsTest, PendingReadsServeUnflushedData) {
  ASSERT_OK_AND_ASSIGN(DiskAddr a, writer_->Append(RecordKind::kData, 1, 0, Block(0x5A)));
  Bytes out;
  ASSERT_OK_AND_ASSIGN(bool pending, writer_->ReadPending(a, kSectorsPerBlock, &out));
  ASSERT_TRUE(pending);
  EXPECT_EQ(out, Block(0x5A));
  ASSERT_OK(writer_->Flush());
  ASSERT_OK_AND_ASSIGN(pending, writer_->ReadPending(a, kSectorsPerBlock, &out));
  EXPECT_FALSE(pending);
  // After flush the data is on the device.
  Bytes from_disk;
  ASSERT_OK(device_->Read(a, kSectorsPerBlock, &from_disk));
  EXPECT_EQ(from_disk, Block(0x5A));
}

// A data record is only its live sectors, so its reader must name the length
// it was written at. Asked at another length, the open chunk answers with an
// error: falling through to the platter would read sectors not written yet.
TEST_F(LfsTest, PendingReadAtAnotherLengthIsAnError) {
  Bytes tail(2 * kSectorSize, 0x3C);
  ASSERT_OK_AND_ASSIGN(DiskAddr a, writer_->Append(RecordKind::kData, 1, 0, tail));
  Bytes out;
  for (uint64_t wrong : {uint64_t{1}, uint64_t{3}, uint64_t{kSectorsPerBlock}}) {
    auto read = writer_->ReadPending(a, wrong, &out);
    ASSERT_FALSE(read.ok()) << wrong;
    EXPECT_EQ(read.status().code(), ErrorCode::kInternal);
    EXPECT_TRUE(out.empty());
  }
  ASSERT_OK_AND_ASSIGN(bool pending, writer_->ReadPending(a, 2, &out));
  ASSERT_TRUE(pending);
  EXPECT_EQ(out, tail);
}

// The block cache holds each record at its length. A read at another length
// is an error too, not a miss: it reads nothing from the device and leaves
// the cached record in place.
TEST_F(LfsTest, BlockCacheReadAtAnotherLengthIsAnError) {
  BlockCache cache(device_.get(), 1 << 20);
  const DiskAddr addr = sb_.SegmentStart(0) + 1;
  Bytes tail(3 * kSectorSize, 0x6B);
  cache.Insert(addr, tail);
  const DiskStats before = device_->stats();
  Bytes out;
  Status wrong = cache.Read(addr, kSectorsPerBlock, &out);
  EXPECT_EQ(wrong.code(), ErrorCode::kInternal);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ((device_->stats() - before).reads, 0u);
  ASSERT_OK(cache.Read(addr, 3, &out));
  EXPECT_EQ(out, tail);
  EXPECT_EQ((device_->stats() - before).reads, 0u);
  // An address the cache does not hold is an ordinary miss.
  ASSERT_OK(cache.Read(addr + 8, 2, &out));
  EXPECT_EQ(out.size(), 2 * kSectorSize);
  EXPECT_EQ((device_->stats() - before).reads, 1u);
}

TEST_F(LfsTest, FlushWritesScannableChunks) {
  ASSERT_OK(writer_->Append(RecordKind::kData, 7, 0, Block(1)).status());
  ASSERT_OK(writer_->Append(RecordKind::kJournal, 7, 0, Bytes(kSectorSize, 2)).status());
  ASSERT_OK(writer_->Flush());
  ASSERT_OK(writer_->Append(RecordKind::kData, 8, 0, Block(3)).status());
  ASSERT_OK(writer_->Flush());

  ASSERT_OK_AND_ASSIGN(std::vector<ScannedChunk> chunks,
                       ScanSegment(device_.get(), sb_, writer_->active_segment()));
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_LT(chunks[0].seq, chunks[1].seq);
  ASSERT_EQ(chunks[0].records.size(), 2u);
  EXPECT_EQ(chunks[0].records[0].kind, RecordKind::kData);
  EXPECT_EQ(chunks[0].records[1].kind, RecordKind::kJournal);
  EXPECT_EQ(chunks[1].records[0].object_id, 8u);
}

TEST_F(LfsTest, SegmentRolloverSealsAndAllocates) {
  // Fill more than one segment worth of blocks.
  uint32_t blocks_per_segment = sb_.segment_sectors / kSectorsPerBlock;
  for (uint32_t i = 0; i < blocks_per_segment + 4; ++i) {
    ASSERT_OK(writer_->Append(RecordKind::kData, 1, i, Block(static_cast<uint8_t>(i)))
                  .status());
  }
  ASSERT_OK(writer_->Flush());
  EXPECT_GE(writer_->stats().segments_sealed, 1u);
  uint32_t full = 0;
  for (SegmentId s = 0; s < sut_->segment_count(); ++s) {
    full += sut_->Info(s).state == SegmentState::kFull ? 1 : 0;
  }
  EXPECT_GE(full, 1u);
}

TEST_F(LfsTest, UsageTableLifecycle) {
  auto seg = sut_->Allocate();
  ASSERT_TRUE(seg.has_value());
  sut_->AddLive(*seg, 16);
  sut_->AddWritten(*seg, 16);
  sut_->Seal(*seg);
  EXPECT_FALSE(sut_->Reclaimable(*seg));
  sut_->LiveToHistory(*seg, 16);
  EXPECT_FALSE(sut_->Reclaimable(*seg));  // history pins it
  sut_->ReleaseHistory(*seg, 16);
  EXPECT_TRUE(sut_->Reclaimable(*seg));
  sut_->Reclaim(*seg);
  EXPECT_EQ(sut_->Info(*seg).state, SegmentState::kFree);
}

TEST_F(LfsTest, UsageTableSerializationRoundTrip) {
  auto seg = sut_->Allocate();
  sut_->AddLive(*seg, 100);
  sut_->AddChunk(*seg, 7);
  sut_->AddChunk(*seg, 8);
  sut_->AddWritten(*seg, 118);
  sut_->LiveToHistory(*seg, 30);
  Encoder enc;
  sut_->EncodeTo(&enc);
  Decoder dec(enc.bytes());
  ASSERT_OK_AND_ASSIGN(SegmentUsageTable restored, SegmentUsageTable::DecodeFrom(&dec));
  EXPECT_EQ(restored.segment_count(), sut_->segment_count());
  EXPECT_EQ(restored.Info(*seg).live_sectors, 70u);
  EXPECT_EQ(restored.Info(*seg).history_sectors, 30u);
  EXPECT_EQ(restored.Info(*seg).state, SegmentState::kActive);
  EXPECT_EQ(restored.Info(*seg).written_sectors, 120u);
  EXPECT_EQ(restored.Info(*seg).first_seq, 7u);
}

TEST_F(LfsTest, FreeOrReclaimableTracksEveryTransition) {
  // A small table so random steps keep revisiting the same segments and
  // cross the free/reclaimable boundary in both directions.
  SegmentUsageTable table(12, sb_.segment_sectors);
  ASSERT_EQ(table.FreeOrReclaimableSegments(), 12u);
  Rng rng(13);
  uint32_t reclaims = 0;
  uint32_t round_trips = 0;
  for (int step = 0; step < 20000; ++step) {
    auto seg = static_cast<SegmentId>(rng.Below(table.segment_count()));
    const SegmentInfo& info = table.Info(seg);
    switch (rng.Below(10)) {
      case 0:
        table.Allocate();
        break;
      case 1:
        if (info.state == SegmentState::kActive) {
          table.Seal(seg);
        }
        break;
      case 2:
        table.SetState(seg, static_cast<SegmentState>(rng.Below(3)));
        break;
      case 3:
        table.AddLive(seg, static_cast<uint32_t>(rng.Below(3)));
        break;
      case 4:
        table.AddWritten(seg, static_cast<uint32_t>(1 + rng.Below(8)));
        break;
      case 5:
        table.LiveToHistory(seg, static_cast<uint32_t>(rng.Below(info.live_sectors + 1)));
        break;
      case 6:
        table.ReleaseHistory(seg, static_cast<uint32_t>(rng.Below(info.history_sectors + 1)));
        break;
      case 7:
        table.ReleaseLive(seg, static_cast<uint32_t>(rng.Below(info.live_sectors + 1)));
        break;
      case 8:
        if (table.Reclaimable(seg)) {
          table.Reclaim(seg);
          ++reclaims;
        }
        break;
      default: {
        Encoder enc;
        table.EncodeTo(&enc);
        Decoder dec(enc.bytes());
        ASSERT_OK_AND_ASSIGN(table, SegmentUsageTable::DecodeFrom(&dec));
        ++round_trips;
        break;
      }
    }
    ASSERT_EQ(table.FreeOrReclaimableSegments(), RecountFreeOrReclaimable(table))
        << "step " << step;
  }
  EXPECT_GT(reclaims, 100u);
  EXPECT_GT(round_trips, 100u);
}

TEST_F(LfsTest, CompactionVictimPrefersEmptiest) {
  SegmentId a = *sut_->Allocate();
  sut_->AddWritten(a, 100);
  sut_->AddLive(a, 90);
  sut_->Seal(a);
  SegmentId b = *sut_->Allocate();
  sut_->AddWritten(b, 100);
  sut_->AddLive(b, 10);
  sut_->Seal(b);
  auto victim = sut_->CompactionVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, b);
}

TEST_F(LfsTest, OutOfSpaceReported) {
  // Tiny table: 2 segments.
  SegmentUsageTable small(2, sb_.segment_sectors);
  SegmentWriter writer(device_.get(), &sb_, &small, clock_.get(), 1);
  uint32_t blocks_per_segment = sb_.segment_sectors / kSectorsPerBlock;
  Status last = Status::Ok();
  for (uint32_t i = 0; i < 3 * blocks_per_segment && last.ok(); ++i) {
    last = writer.Append(RecordKind::kData, 1, i, Block(0)).status();
  }
  EXPECT_EQ(last.code(), ErrorCode::kOutOfSpace);
}

}  // namespace
}  // namespace s4
