#include "src/lfs/scan.h"

#include "src/util/crc32.h"

namespace s4 {

Result<std::vector<ScannedChunk>> ScanSegment(BlockDevice* device, const Superblock& sb,
                                              SegmentId segment,
                                              const SegmentScanOptions& opts) {
  std::vector<ScannedChunk> chunks;
  DiskAddr seg_start = sb.SegmentStart(segment);
  uint32_t offset = opts.start_offset;
  if (offset >= sb.segment_sectors) {
    return chunks;
  }
  // Probe one sector first: segments probed for emptiness (the roll-forward
  // chain terminator) stay a single-sector read. On a valid summary, pull the
  // whole remaining tail in one command — on a seek-dominated device one long
  // transfer beats a positioning delay per chunk.
  Bytes buf;
  S4_RETURN_IF_ERROR(device->Read(seg_start + offset, 1, &buf));
  auto probe = ChunkSummary::Decode(buf);
  if (!probe.ok() || probe->seq < opts.min_seq) {
    return chunks;  // unwritten, torn, or stale head: nothing to scan
  }
  const uint32_t tail = sb.segment_sectors - offset;  // sectors in buf once full
  if (tail > 1) {
    Bytes rest;
    S4_RETURN_IF_ERROR(device->Read(seg_start + offset + 1, tail - 1, &rest));
    buf.insert(buf.end(), rest.begin(), rest.end());
  }
  const auto sectors_at = [&buf](uint32_t rel, uint32_t n) {
    return ByteSpan(buf).subspan(uint64_t{rel} * kSectorSize, uint64_t{n} * kSectorSize);
  };
  uint32_t rel = 0;  // sector index into buf; disk offset is offset + rel
  while (rel < tail) {
    auto summary = ChunkSummary::Decode(sectors_at(rel, 1));
    if (!summary.ok()) {
      break;  // unwritten tail or torn chunk: stop scanning this segment
    }
    if (summary->seq < opts.min_seq) {
      break;  // stale chunk from the segment's previous life: end of log tail
    }
    uint32_t payload = summary->PayloadSectors();
    if (rel + 1 + payload > tail) {
      break;  // summary claims more payload than fits: treat as torn
    }
    // The summary CRC only proves the summary sector persisted. A power cut
    // can land the summary and tear the payload (the chunk is one sequential
    // write, but the platter commits sector by sector). Verify the payload
    // CRC before trusting the chunk; a mismatch means a torn tail.
    if (payload > 0 && Crc32c(sectors_at(rel + 1, payload)) != summary->payload_crc) {
      break;  // torn chunk: stop scanning this segment
    }
    ScannedChunk chunk;
    chunk.seq = summary->seq;
    chunk.write_time = summary->write_time;
    chunk.segment = segment;
    uint32_t rec_rel = rel + 1;
    DiskAddr addr = seg_start + offset + rec_rel;
    for (const auto& rec : summary->records) {
      ScannedRecord out{rec.kind, rec.object_id, rec.block_index, addr, rec.sectors, {}};
      if (rec.kind == RecordKind::kJournal) {
        // A JournalSector encodes into exactly one sector; that is also all
        // replay ever decodes from a journal record.
        ByteSpan raw = sectors_at(rec_rel, 1);
        out.raw.assign(raw.begin(), raw.end());
      }
      chunk.records.push_back(std::move(out));
      addr += rec.sectors;
      rec_rel += rec.sectors;
    }
    chunks.push_back(std::move(chunk));
    rel += 1 + payload;
  }
  return chunks;
}

}  // namespace s4
