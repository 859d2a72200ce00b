// Configuration of an S4 drive instance.
#ifndef S4_SRC_DRIVE_OPTIONS_H_
#define S4_SRC_DRIVE_OPTIONS_H_

#include <cstdint>

#include "src/util/time.h"

namespace s4 {

struct S4DriveOptions {
  // --- Geometry (used at Format time) ---
  uint32_t segment_sectors = 1024;  // 512KB segments

  // --- Caches (paper: 128MB buffer cache, 32MB object cache) ---
  uint64_t block_cache_bytes = 32ull << 20;
  uint64_t object_cache_bytes = 8ull << 20;

  // --- Self-securing behaviour ---
  // Guaranteed detection window (adjustable at runtime via SetWindow).
  SimDuration detection_window = 7 * kDay;
  // Comprehensive versioning. Disabling it yields the "no data protection
  // guarantees" comparator of section 5.1.5: journal entries are still
  // written for crash recovery, but superseded data is freed immediately and
  // time-based access is refused.
  bool versioning_enabled = true;
  // Audit log of all requests (section 4.2.3).
  bool audit_enabled = true;
  // Hash-chained, torn-write-safe audit framing with commit markers (see
  // src/audit/audit_chain.h). Disabling falls back to the bare record stream
  // (no tamper evidence; used as the bench_audit baseline).
  bool audit_chain = true;
  // Background/foreground cleaning (section 4.2.1).
  bool cleaner_enabled = true;

  // --- Space-exhaustion defense (section 3.3) ---
  // Above this fraction of consumed segments, clients writing faster than
  // their fair share get progressively delayed.
  double throttle_threshold = 0.90;
  // Above this fraction, such clients are refused with kThrottled.
  double reject_threshold = 0.97;
  // A client's "fair share" of sustained write bandwidth; only clients above
  // it are penalised when space runs low.
  double fair_share_bytes_per_sec = 2.0 * (1 << 20);

  // --- Administrative access (section 3.5) ---
  uint64_t admin_key = 0xA11ACCE55ull;

  // --- History access (version waypoints) ---
  // A (time -> sector) waypoint is recorded every this many journal sectors
  // of an object's chain, giving time-bounded walks and deep back-in-time
  // reads a seek target instead of an O(chain) scan from the head. 0 disables
  // waypoints (the pre-indexed behaviour; used as the bench baseline).
  uint32_t waypoint_interval_sectors = 8;

  // --- Cleaner pacing ---
  // Incremental cleaning: candidate objects come from an expiry index ordered
  // by oldest retained entry instead of a full object-map scan, and chain
  // walks seek past unexpirable territory via waypoints. Disabling restores
  // the full-scan, full-walk behaviour (the bench baseline).
  bool cleaner_incremental = true;
  // Journal sectors one cleaner pass may read while expiring history; objects
  // left unvisited stay queued for the next pass. 0 = unlimited.
  uint64_t cleaner_pass_sector_budget = 4096;

  // --- Internals ---
  uint64_t journal_flush_entries = 64;    // pack pending entries at this count
  uint64_t checkpoint_interval_bytes = 8ull << 20;  // auto-checkpoint cadence
};

}  // namespace s4

#endif  // S4_SRC_DRIVE_OPTIONS_H_
