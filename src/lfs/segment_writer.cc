#include "src/lfs/segment_writer.h"

#include <cstring>
#include <string>

#include "src/util/check.h"
#include "src/util/crc32.h"

namespace s4 {
namespace {

// Encoded summary budget: sector minus CRC and fixed header fields.
constexpr size_t kSummaryBudget = kSectorSize - 4 /*crc*/ - 4 /*magic*/ - 8 /*seq*/ -
                                  8 /*time*/ - 4 /*payload crc*/ - 5 /*count varint*/;

// Worst-case encoded size of one ChunkRecord.
size_t RecordEncodedSize(const ChunkRecord& r) {
  auto varint_size = [](uint64_t v) {
    size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  };
  return 1 + varint_size(r.object_id) + varint_size(r.block_index) + varint_size(r.sectors);
}

}  // namespace

SegmentWriter::SegmentWriter(BlockDevice* device, const Superblock* sb, SegmentUsageTable* sut,
                             SimClock* clock, uint64_t next_seq)
    : device_(device), sb_(sb), sut_(sut), clock_(clock), next_seq_(next_seq) {}

uint32_t SegmentWriter::PendingSectors() const {
  if (pending_summary_.records.empty()) {
    return 0;
  }
  return 1 + pending_summary_.PayloadSectors();
}

uint32_t SegmentWriter::ActiveSegmentRemaining() const {
  if (active_segment_ == kNullSegment) {
    return 0;
  }
  return sb_->segment_sectors - fill_sectors_ - PendingSectors();
}

Status SegmentWriter::OpenSegmentIfNeeded() {
  if (active_segment_ != kNullSegment) {
    return Status::Ok();
  }
  auto seg = sut_->Allocate();
  if (!seg.has_value()) {
    return Status::OutOfSpace("no free segments");
  }
  active_segment_ = *seg;
  fill_sectors_ = 0;
  return Status::Ok();
}

Status SegmentWriter::RolloverSegment(OpContext* ctx) {
  S4_RETURN_IF_ERROR(Flush(ctx));
  if (active_segment_ != kNullSegment) {
    sut_->Seal(active_segment_);
    ++stats_.segments_sealed;
    active_segment_ = kNullSegment;
  }
  return OpenSegmentIfNeeded();
}

Result<DiskAddr> SegmentWriter::Append(RecordKind kind, uint64_t object_id, uint64_t block_index,
                                       ByteSpan payload, OpContext* ctx) {
  ScopedSpan span(ctx, "lfs.append");
  S4_CHECK(payload.size() % kSectorSize == 0 && !payload.empty());
  uint32_t payload_sectors = static_cast<uint32_t>(payload.size() / kSectorSize);
  S4_CHECK(payload_sectors + 1 <= sb_->segment_sectors);

  S4_RETURN_IF_ERROR(OpenSegmentIfNeeded());

  ChunkRecord rec{kind, object_id, block_index, static_cast<uint16_t>(payload_sectors)};
  size_t rec_bytes = RecordEncodedSize(rec);

  // Start a fresh chunk if the summary sector is full.
  if (pending_summary_bytes_ + rec_bytes > kSummaryBudget) {
    S4_RETURN_IF_ERROR(Flush(ctx));
  }
  // Roll to a new segment if this record does not fit in the current one.
  uint32_t needed = payload_sectors + (pending_summary_.records.empty() ? 1 : 0);
  if (fill_sectors_ + PendingSectors() + needed > sb_->segment_sectors) {
    S4_RETURN_IF_ERROR(RolloverSegment(ctx));
  }

  // Address: summary sector sits at the chunk start, payloads follow in order.
  DiskAddr chunk_start = sb_->SegmentStart(active_segment_) + fill_sectors_;
  DiskAddr addr = chunk_start + 1 + pending_summary_.PayloadSectors();

  // Buffered path without an intermediate copy: the payload goes straight to
  // its final position in the chunk buffer, behind the reserved summary
  // sector. Flush only fills in the summary — it never re-copies payloads.
  if (chunk_.empty()) {
    chunk_.resize(kSectorSize);  // summary placeholder
  } else {
    stats_.bytes_coalesced += payload.size();
  }
  pending_summary_.records.push_back(rec);
  pending_summary_bytes_ += rec_bytes;
  size_t off = chunk_.size() - kSectorSize;
  chunk_.insert(chunk_.end(), payload.begin(), payload.end());
  pending_index_[addr] = {off, payload.size()};

  sut_->AddLive(active_segment_, payload_sectors);
  sut_->AddWritten(active_segment_, payload_sectors);
  ++stats_.records_appended;
  return addr;
}

void SegmentWriter::Resume(SegmentId segment, uint32_t fill_sectors) {
  S4_CHECK(pending_summary_.records.empty());
  if (fill_sectors + 2 > sb_->segment_sectors) {
    sut_->Seal(segment);
    ++stats_.segments_sealed;
    active_segment_ = kNullSegment;
    fill_sectors_ = 0;
    return;
  }
  active_segment_ = segment;
  fill_sectors_ = fill_sectors;
}

Status SegmentWriter::Flush(OpContext* ctx) {
  if (pending_summary_.records.empty()) {
    return Status::Ok();
  }
  ScopedSpan span(ctx, "lfs.flush");
  pending_summary_.seq = next_seq_++;
  pending_summary_.write_time = clock_->Now();
  // Cover the payload so recovery can tell a fully persisted chunk from one
  // whose summary landed but whose payload was torn by a power cut.
  pending_summary_.payload_crc =
      Crc32c(ByteSpan(chunk_.data() + kSectorSize, chunk_.size() - kSectorSize));
  S4_ASSIGN_OR_RETURN(Bytes summary, pending_summary_.Encode());
  S4_CHECK(summary.size() == kSectorSize);
  std::memcpy(chunk_.data(), summary.data(), kSectorSize);

  DiskAddr chunk_start = sb_->SegmentStart(active_segment_) + fill_sectors_;
  S4_RETURN_IF_ERROR(device_->Write(chunk_start, chunk_, ctx));

  uint32_t chunk_sectors = static_cast<uint32_t>(chunk_.size() / kSectorSize);
  fill_sectors_ += chunk_sectors;
  sut_->AddChunk(active_segment_, pending_summary_.seq);
  ++stats_.chunks_flushed;
  stats_.sectors_flushed += chunk_sectors;
  stats_.bytes_flushed += chunk_.size();

  pending_summary_ = ChunkSummary();
  chunk_.clear();
  pending_summary_bytes_ = 0;
  pending_index_.clear();
  return Status::Ok();
}

Result<bool> SegmentWriter::ReadPending(DiskAddr addr, uint64_t sectors, Bytes* out) const {
  auto it = pending_index_.find(addr);
  if (it == pending_index_.end()) {
    return false;
  }
  auto [off, len] = it->second;
  if (len != sectors * kSectorSize) {
    return Status::Internal("pending record at sector " + std::to_string(addr) + " holds " +
                            std::to_string(len / kSectorSize) + " sectors, read at " +
                            std::to_string(sectors));
  }
  auto payload_begin = chunk_.begin() + kSectorSize;
  out->assign(payload_begin + off, payload_begin + off + len);
  return true;
}

}  // namespace s4
