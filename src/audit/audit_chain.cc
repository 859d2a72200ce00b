#include "src/audit/audit_chain.h"

#include "src/util/check.h"
#include "src/util/crc32.h"

namespace s4 {
namespace {

void PutLinkLE(uint32_t link, uint8_t out[4]) {
  out[0] = static_cast<uint8_t>(link & 0xff);
  out[1] = static_cast<uint8_t>((link >> 8) & 0xff);
  out[2] = static_cast<uint8_t>((link >> 16) & 0xff);
  out[3] = static_cast<uint8_t>((link >> 24) & 0xff);
}

// The link digest covers the predecessor's link (little-endian) followed by
// every frame byte from the u16 length prefix through the end of the payload
// (everything except the trailing link itself).
uint32_t ComputeLink(uint32_t prev_link, ByteSpan frame_through_payload) {
  uint8_t prev[4];
  PutLinkLE(prev_link, prev);
  uint32_t state = Crc32cInit();
  state = Crc32cExtend(state, ByteSpan(prev, sizeof(prev)));
  state = Crc32cExtend(state, frame_through_payload);
  return Crc32cFinish(state);
}

std::string FrameError(uint64_t seq, uint64_t offset, const std::string& what) {
  return "frame seq=" + std::to_string(seq) + " at offset " + std::to_string(offset) + ": " + what;
}

}  // namespace

const char* AuditVerdictName(AuditVerdict v) {
  switch (v) {
    case AuditVerdict::kOk:
      return "ok";
    case AuditVerdict::kCleanTail:
      return "clean-tail";
    case AuditVerdict::kCorrupted:
      return "corrupted";
  }
  return "unknown";
}

void AppendChainFrame(const AuditRecord& record, AuditChainState* state, Encoder* out) {
  // Body = varint seq | varint self_offset | payload, encoded in place behind
  // a reserved u16 prefix that then gets body + 4 link bytes.
  const size_t start = out->size();
  out->PutU16(0);
  out->PutVarint(state->next_seq);
  out->PutVarint(state->next_offset);
  record.EncodeTo(out);
  const size_t frame_len = out->size() - start - 2 + 4;
  S4_CHECK(frame_len <= 0xffff);
  out->PatchU16(start, static_cast<uint16_t>(frame_len));
  const uint32_t link = ComputeLink(state->link, ByteSpan(out->bytes()).subspan(start));
  out->PutU32(link);

  state->link = link;
  state->next_seq += 1;
  state->next_offset += 2 + frame_len;
}

AuditChainScan ScanChain(ByteSpan stream, uint64_t base_offset, const AuditChainState& start,
                         uint64_t committed_size,
                         const std::function<void(const AuditRecord&)>& sink) {
  AuditChainScan scan;
  scan.end_state = start;

  // Classify a failure at absolute offset `abs`: inside the committed prefix
  // it is tampering, at/after it it is a torn (never-marked-durable) tail.
  auto fail = [&](uint64_t abs, const std::string& what) {
    scan.verdict =
        abs < committed_size ? AuditVerdict::kCorrupted : AuditVerdict::kCleanTail;
    scan.first_bad_seq = scan.end_state.next_seq;
    scan.bad_offset = abs;
    scan.tail_bytes = base_offset + stream.size() - abs;
    scan.detail = FrameError(scan.end_state.next_seq, abs, what);
  };

  size_t pos = 0;
  while (pos < stream.size()) {
    const uint64_t abs = base_offset + pos;
    if (abs == committed_size && !scan.commit_state_seen) {
      scan.commit_state = scan.end_state;
      scan.commit_state_seen = true;
    }
    const size_t avail = stream.size() - pos;
    if (avail < 2) {
      fail(abs, "short length prefix");
      return scan;
    }
    const uint16_t frame_len =
        static_cast<uint16_t>(stream[pos]) | (static_cast<uint16_t>(stream[pos + 1]) << 8);
    if (frame_len < kMinAuditFrameLen) {
      fail(abs, "frame length " + std::to_string(frame_len) + " below minimum");
      return scan;
    }
    const uint64_t frame_total = 2ull + frame_len;
    if (frame_total > avail) {
      fail(abs, "frame extends past end of stream");
      return scan;
    }
    // A frame must not straddle the commit boundary: the marker vouches for
    // whole frames, so a committed_size inside a frame is itself divergence.
    if (abs < committed_size && abs + frame_total > committed_size) {
      fail(abs, "frame straddles commit marker boundary");
      return scan;
    }

    ByteSpan through_payload = stream.subspan(pos, frame_total - 4);
    Decoder dec(stream.subspan(pos + 2, frame_len));
    auto seq = dec.Varint();
    auto self_offset = dec.Varint();
    if (!seq.ok() || !self_offset.ok()) {
      fail(abs, "unreadable frame header");
      return scan;
    }
    if (*seq != scan.end_state.next_seq) {
      fail(abs, "sequence " + std::to_string(*seq) + " != expected " +
                    std::to_string(scan.end_state.next_seq));
      return scan;
    }
    if (*self_offset != abs) {
      fail(abs, "self-address " + std::to_string(*self_offset) + " != actual offset (replay?)");
      return scan;
    }
    auto rec = AuditRecord::DecodeFrom(&dec);
    if (!rec.ok()) {
      fail(abs, "payload decode: " + rec.status().ToString());
      return scan;
    }
    if (dec.remaining() != 4) {
      fail(abs, "payload length mismatch inside frame");
      return scan;
    }
    auto stored_link = dec.U32();
    if (!stored_link.ok()) {
      fail(abs, "unreadable link");
      return scan;
    }
    const uint32_t want = ComputeLink(scan.end_state.link, through_payload);
    if (*stored_link != want) {
      fail(abs, "link hash mismatch");
      return scan;
    }

    scan.records += 1;
    scan.end_state.link = *stored_link;
    scan.end_state.next_seq = *seq + 1;
    scan.end_state.next_offset = abs + frame_total;
    if (sink) sink(*rec);
    pos += frame_total;
  }

  if (scan.end_state.next_offset == committed_size && !scan.commit_state_seen) {
    scan.commit_state = scan.end_state;
    scan.commit_state_seen = true;
  }
  // The stream ended cleanly but short of what the marker vouches for: the
  // committed suffix is missing, which only tampering explains.
  if (scan.end_state.next_offset < committed_size) {
    scan.verdict = AuditVerdict::kCorrupted;
    scan.first_bad_seq = scan.end_state.next_seq;
    scan.bad_offset = scan.end_state.next_offset;
    scan.detail = FrameError(scan.end_state.next_seq, scan.end_state.next_offset,
                             "stream ends before committed size " + std::to_string(committed_size));
    return scan;
  }
  scan.verdict = AuditVerdict::kOk;
  return scan;
}

Status VerifyChallengeProof(ByteSpan frames, AuditChainState* saved) {
  // Proof frames are all committed on the drive, so any divergence — even at
  // the last byte — is a failed challenge, never a clean tail.
  const uint64_t committed = saved->next_offset + frames.size();
  AuditChainScan scan = ScanChain(frames, saved->next_offset, *saved, committed, nullptr);
  if (scan.verdict != AuditVerdict::kOk) {
    return Status::DataCorruption("audit challenge failed: " + scan.detail);
  }
  *saved = scan.end_state;
  return Status::Ok();
}

}  // namespace s4
