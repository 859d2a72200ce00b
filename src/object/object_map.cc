#include "src/object/object_map.h"

namespace s4 {

ObjectId ObjectMap::AllocateId() { return next_id_++; }

ObjectMapEntry* ObjectMap::Find(ObjectId id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const ObjectMapEntry* ObjectMap::Find(ObjectId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

ObjectMapEntry& ObjectMap::Put(ObjectId id, ObjectMapEntry entry) {
  return entries_[id] = entry;
}

void ObjectMap::Erase(ObjectId id) { entries_.erase(id); }

void ObjectMap::ReserveThrough(ObjectId id) {
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
}

void ObjectMap::EncodeTo(Encoder* enc) const {
  enc->PutU64(next_id_);
  enc->PutVarint(entries_.size());
  for (const auto& [id, e] : entries_) {
    enc->PutVarint(id);
    enc->PutI64(e.create_time);
    enc->PutI64(e.delete_time);
    enc->PutVarint(e.checkpoint_addr);
    enc->PutVarint(e.checkpoint_sectors);
    enc->PutI64(e.checkpoint_time);
    enc->PutVarint(e.journal_head);
    enc->PutI64(e.history_barrier);
    enc->PutVarint(e.waypoints.size());
    for (const JournalWaypoint& w : e.waypoints) {
      enc->PutI64(w.time);
      enc->PutVarint(w.addr);
    }
    // The low bit flags a move time: an object that never moved keeps its length.
    enc->PutVarint(uint64_t{e.sectors_since_waypoint} << 1 | (e.move_time != 0 ? 1 : 0));
    if (e.move_time != 0) {
      enc->PutI64(e.move_time);
    }
  }
}

Result<ObjectMap> ObjectMap::DecodeFrom(Decoder* dec) {
  ObjectMap map;
  S4_ASSIGN_OR_RETURN(map.next_id_, dec->U64());
  S4_ASSIGN_OR_RETURN(uint64_t n, dec->Varint());
  for (uint64_t i = 0; i < n; ++i) {
    S4_ASSIGN_OR_RETURN(uint64_t id, dec->Varint());
    ObjectMapEntry e;
    S4_ASSIGN_OR_RETURN(e.create_time, dec->I64());
    S4_ASSIGN_OR_RETURN(e.delete_time, dec->I64());
    S4_ASSIGN_OR_RETURN(e.checkpoint_addr, dec->Varint());
    S4_ASSIGN_OR_RETURN(uint64_t cs, dec->Varint());
    e.checkpoint_sectors = static_cast<uint32_t>(cs);
    S4_ASSIGN_OR_RETURN(e.checkpoint_time, dec->I64());
    S4_ASSIGN_OR_RETURN(e.journal_head, dec->Varint());
    S4_ASSIGN_OR_RETURN(e.history_barrier, dec->I64());
    S4_ASSIGN_OR_RETURN(uint64_t nwp, dec->Varint());
    e.waypoints.reserve(nwp);
    for (uint64_t w = 0; w < nwp; ++w) {
      JournalWaypoint wp;
      S4_ASSIGN_OR_RETURN(wp.time, dec->I64());
      S4_ASSIGN_OR_RETURN(wp.addr, dec->Varint());
      e.waypoints.push_back(wp);
    }
    S4_ASSIGN_OR_RETURN(uint64_t ssw, dec->Varint());
    e.sectors_since_waypoint = static_cast<uint32_t>(ssw >> 1);
    if ((ssw & 1) != 0) {
      S4_ASSIGN_OR_RETURN(e.move_time, dec->I64());
    }
    map.entries_[id] = e;
  }
  return map;
}

}  // namespace s4
