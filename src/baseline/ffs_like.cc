#include "src/baseline/ffs_like.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace s4 {
namespace {

constexpr uint64_t kPtrsPerBlock = kBlockSize / 8;
constexpr uint64_t kDirectBlocks = 12;

}  // namespace

FfsLikeServer::FfsLikeServer(BlockDevice* device, SimClock* clock, FfsOptions options)
    : device_(device), clock_(clock), options_(options) {}

Result<std::unique_ptr<FfsLikeServer>> FfsLikeServer::Format(BlockDevice* device,
                                                             SimClock* clock,
                                                             FfsOptions options) {
  auto fs = std::unique_ptr<FfsLikeServer>(new FfsLikeServer(device, clock, options));
  fs->groups_ = options.cylinder_groups;
  fs->group_sectors_ = (device->sector_count() - 1) / fs->groups_;
  fs->inodes_per_group_ = options.max_inodes / fs->groups_;
  if (fs->inodes_per_group_ == 0) {
    return Status::InvalidArgument("too few inodes per group");
  }
  fs->inode_sectors_per_group_ =
      (static_cast<uint64_t>(fs->inodes_per_group_) * kInodeSize + kSectorSize - 1) /
      kSectorSize;

  // Per group: [inode table][bitmap][data blocks].
  // bitmap: one bit per block, one sector covers 4096 blocks.
  uint64_t overhead_guess = fs->inode_sectors_per_group_ + 8;
  if (fs->group_sectors_ <= overhead_guess + kSectorsPerBlock) {
    return Status::InvalidArgument("device too small");
  }
  uint64_t data_sectors = fs->group_sectors_ - overhead_guess;
  fs->blocks_per_group_ = data_sectors / kSectorsPerBlock;
  fs->bitmap_sectors_per_group_ = (fs->blocks_per_group_ + 8 * kSectorSize - 1) /
                                  (8 * kSectorSize);
  // Recompute with the real bitmap size.
  data_sectors = fs->group_sectors_ - fs->inode_sectors_per_group_ -
                 fs->bitmap_sectors_per_group_;
  fs->blocks_per_group_ = data_sectors / kSectorsPerBlock;
  fs->data_block_count_ = fs->blocks_per_group_ * fs->groups_;

  fs->inodes_.resize(options.max_inodes);
  fs->block_bitmap_.assign(fs->data_block_count_ + 1, false);
  fs->block_bitmap_[0] = true;  // block numbers start at 1
  fs->group_rotor_.assign(fs->groups_, 0);
  fs->buffer_cache_ = std::make_unique<LruCache<uint64_t, Bytes>>(options.buffer_cache_bytes);

  Inode& root = fs->inodes_[kRootInode];
  root.used = true;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.ctime = root.mtime = clock->Now();
  S4_RETURN_IF_ERROR(fs->WriteInodeMeta(kRootInode));
  return fs;
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

DiskAddr FfsLikeServer::InodeSector(uint32_t ino) const {
  uint32_t group = GroupOfInode(ino);
  uint32_t within = ino % inodes_per_group_;
  return GroupStart(group) + static_cast<uint64_t>(within) * kInodeSize / kSectorSize;
}

DiskAddr FfsLikeServer::BitmapSector(uint64_t blk) const {
  uint32_t group = GroupOfBlock(blk);
  uint64_t within = (blk - 1) % blocks_per_group_;
  return GroupStart(group) + inode_sectors_per_group_ + within / (8 * kSectorSize);
}

DiskAddr FfsLikeServer::BlockSector(uint64_t blk) const {
  uint32_t group = GroupOfBlock(blk);
  uint64_t within = (blk - 1) % blocks_per_group_;
  return GroupStart(group) + inode_sectors_per_group_ + bitmap_sectors_per_group_ +
         within * kSectorsPerBlock;
}

Result<FfsLikeServer::Inode*> FfsLikeServer::GetInode(uint32_t ino) {
  if (ino >= inodes_.size() || !inodes_[ino].used) {
    return Status::NotFound("no such inode");
  }
  return &inodes_[ino];
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

Result<uint32_t> FfsLikeServer::AllocInode(uint32_t hint_group) {
  for (uint32_t probe = 0; probe < groups_; ++probe) {
    uint32_t group = (hint_group + probe) % groups_;
    uint32_t base = group * inodes_per_group_;
    for (uint32_t i = 0; i < inodes_per_group_; ++i) {
      uint32_t ino = base + i;
      if (ino <= kRootInode) {
        continue;
      }
      if (!inodes_[ino].used) {
        inodes_[ino] = Inode();
        inodes_[ino].used = true;
        return ino;
      }
    }
  }
  return Status::OutOfSpace("inode table full");
}

void FfsLikeServer::FreeInode(uint32_t ino) { inodes_[ino] = Inode(); }

Status FfsLikeServer::WriteInodeMeta(uint32_t ino) {
  uint64_t sector = InodeSector(ino);
  if (!options_.sync_metadata) {
    dirty_meta_sectors_.insert(sector);
    return Status::Ok();
  }
  // The in-memory table is authoritative; the device write models the I/O
  // cost and persistence of the containing inode sector.
  Bytes raw(kSectorSize, 0);
  return device_->Write(sector, raw);
}

Result<uint64_t> FfsLikeServer::AllocBlock(uint32_t hint_group) {
  for (uint32_t probe = 0; probe < groups_; ++probe) {
    uint32_t group = (hint_group + probe) % groups_;
    uint64_t base = static_cast<uint64_t>(group) * blocks_per_group_ + 1;
    uint64_t& rotor = group_rotor_[group];
    for (uint64_t i = 0; i < blocks_per_group_; ++i) {
      uint64_t blk = base + (rotor + i) % blocks_per_group_;
      if (!block_bitmap_[blk]) {
        block_bitmap_[blk] = true;
        rotor = (rotor + i + 1) % blocks_per_group_;
        MarkBitmapDirty(blk);
        return blk;
      }
    }
  }
  return Status::OutOfSpace("no free blocks");
}

void FfsLikeServer::FreeBlock(uint64_t blk) {
  block_bitmap_[blk] = false;
  pinned_meta_.erase(blk);
  MarkBitmapDirty(blk);
}

void FfsLikeServer::MarkBitmapDirty(uint64_t blk) {
  // FFS writes allocation bitmaps behind (fsck reconstructs them), so both
  // personalities defer these.
  dirty_meta_sectors_.insert(BitmapSector(blk));
}

// ---------------------------------------------------------------------------
// Block I/O
// ---------------------------------------------------------------------------

Result<Bytes> FfsLikeServer::ReadBlock(uint64_t blk) {
  if (auto it = pinned_meta_.find(blk); it != pinned_meta_.end()) {
    return it->second;
  }
  if (Bytes* hit = buffer_cache_->Get(blk); hit != nullptr) {
    return *hit;
  }
  Bytes out;
  S4_RETURN_IF_ERROR(device_->Read(BlockSector(blk), kSectorsPerBlock, &out));
  buffer_cache_->Put(blk, out, out.size());
  return out;
}

Status FfsLikeServer::WriteBlock(uint64_t blk, ByteSpan content) {
  S4_CHECK(content.size() == kBlockSize);
  S4_RETURN_IF_ERROR(device_->Write(BlockSector(blk), content));
  buffer_cache_->Put(blk, Bytes(content.begin(), content.end()), content.size());
  return Status::Ok();
}

Result<Bytes> FfsLikeServer::ReadIndirect(uint64_t blk) { return ReadBlock(blk); }

Status FfsLikeServer::WriteIndirect(uint64_t blk, const Bytes& content) {
  if (!options_.sync_metadata) {
    pinned_meta_[blk] = content;
    buffer_cache_->Remove(blk);
    return Status::Ok();
  }
  buffer_cache_->Put(blk, content, content.size());
  return device_->Write(BlockSector(blk), content);
}

// ---------------------------------------------------------------------------
// Block mapping
// ---------------------------------------------------------------------------

Result<uint64_t> FfsLikeServer::GetFileBlock(Inode* ino, uint32_t group, uint64_t index,
                                             bool allocate) {
  auto ensure_indirect = [&](uint64_t* slot) -> Result<uint64_t> {
    if (*slot == 0) {
      if (!allocate) {
        return uint64_t{0};
      }
      S4_ASSIGN_OR_RETURN(*slot, AllocBlock(group));
      Bytes zero(kBlockSize, 0);
      S4_RETURN_IF_ERROR(WriteIndirect(*slot, zero));
    }
    return *slot;
  };
  auto slot_in = [&](uint64_t indirect_blk, uint64_t slot_index,
                     uint64_t* out) -> Result<bool> {
    S4_ASSIGN_OR_RETURN(Bytes content, ReadIndirect(indirect_blk));
    uint64_t value = 0;
    std::memcpy(&value, content.data() + slot_index * 8, 8);
    if (value == 0 && allocate) {
      S4_ASSIGN_OR_RETURN(value, AllocBlock(group));
      std::memcpy(content.data() + slot_index * 8, &value, 8);
      S4_RETURN_IF_ERROR(WriteIndirect(indirect_blk, content));
    }
    *out = value;
    return true;
  };

  if (index < kDirectBlocks) {
    if (ino->direct[index] == 0 && allocate) {
      S4_ASSIGN_OR_RETURN(ino->direct[index], AllocBlock(group));
    }
    return ino->direct[index];
  }
  index -= kDirectBlocks;
  if (index < kPtrsPerBlock) {
    S4_ASSIGN_OR_RETURN(uint64_t ind, ensure_indirect(&ino->single_indirect));
    if (ind == 0) {
      return uint64_t{0};
    }
    uint64_t blk = 0;
    S4_RETURN_IF_ERROR(slot_in(ind, index, &blk).status());
    return blk;
  }
  index -= kPtrsPerBlock;
  if (index >= kPtrsPerBlock * kPtrsPerBlock) {
    return Status::InvalidArgument("file too large");
  }
  S4_ASSIGN_OR_RETURN(uint64_t dbl, ensure_indirect(&ino->double_indirect));
  if (dbl == 0) {
    return uint64_t{0};
  }
  uint64_t mid = 0;
  {
    S4_ASSIGN_OR_RETURN(Bytes content, ReadIndirect(dbl));
    std::memcpy(&mid, content.data() + (index / kPtrsPerBlock) * 8, 8);
    if (mid == 0 && allocate) {
      S4_ASSIGN_OR_RETURN(mid, AllocBlock(group));
      Bytes zero(kBlockSize, 0);
      S4_RETURN_IF_ERROR(WriteIndirect(mid, zero));
      std::memcpy(content.data() + (index / kPtrsPerBlock) * 8, &mid, 8);
      S4_RETURN_IF_ERROR(WriteIndirect(dbl, content));
    }
  }
  if (mid == 0) {
    return uint64_t{0};
  }
  uint64_t blk = 0;
  S4_RETURN_IF_ERROR(slot_in(mid, index % kPtrsPerBlock, &blk).status());
  return blk;
}

Status FfsLikeServer::FreeFileBlocks(Inode* ino, uint64_t from_index) {
  uint64_t nblocks = (ino->size + kBlockSize - 1) / kBlockSize;
  uint32_t group = 0;  // lookups don't allocate; hint unused
  for (uint64_t i = from_index; i < nblocks; ++i) {
    S4_ASSIGN_OR_RETURN(uint64_t blk, GetFileBlock(ino, group, i, /*allocate=*/false));
    if (blk == 0) {
      continue;
    }
    FreeBlock(blk);
    buffer_cache_->Remove(blk);
    // Clear the pointer so a later extension sees a hole, not stale data.
    if (i < kDirectBlocks) {
      ino->direct[i] = 0;
    } else {
      uint64_t rel = i - kDirectBlocks;
      uint64_t indirect = 0;
      uint64_t slot = 0;
      if (rel < kPtrsPerBlock) {
        indirect = ino->single_indirect;
        slot = rel;
      } else {
        rel -= kPtrsPerBlock;
        if (ino->double_indirect != 0) {
          S4_ASSIGN_OR_RETURN(Bytes dbl, ReadIndirect(ino->double_indirect));
          std::memcpy(&indirect, dbl.data() + (rel / kPtrsPerBlock) * 8, 8);
        }
        slot = rel % kPtrsPerBlock;
      }
      if (indirect != 0) {
        S4_ASSIGN_OR_RETURN(Bytes content, ReadIndirect(indirect));
        uint64_t zero = 0;
        std::memcpy(content.data() + slot * 8, &zero, 8);
        S4_RETURN_IF_ERROR(WriteIndirect(indirect, content));
      }
    }
  }
  if (from_index == 0) {
    std::fill(std::begin(ino->direct), std::end(ino->direct), 0);
    if (ino->single_indirect != 0) {
      FreeBlock(ino->single_indirect);
      ino->single_indirect = 0;
    }
    if (ino->double_indirect != 0) {
      S4_ASSIGN_OR_RETURN(Bytes dbl, ReadIndirect(ino->double_indirect));
      for (uint64_t s = 0; s < kPtrsPerBlock; ++s) {
        uint64_t leaf = 0;
        std::memcpy(&leaf, dbl.data() + s * 8, 8);
        if (leaf != 0) {
          FreeBlock(leaf);
        }
      }
      FreeBlock(ino->double_indirect);
      ino->double_indirect = 0;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

Result<Bytes> FfsLikeServer::ReadFileRaw(uint32_t ino_num, uint64_t offset, uint64_t length) {
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(ino_num));
  if (offset >= ino->size) {
    return Bytes{};
  }
  uint32_t group = GroupOfInode(ino_num);
  length = std::min(length, ino->size - offset);
  Bytes out(length, 0);
  uint64_t first = offset / kBlockSize;
  uint64_t last = (offset + length - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; ++b) {
    S4_ASSIGN_OR_RETURN(uint64_t blk, GetFileBlock(ino, group, b, /*allocate=*/false));
    if (blk == 0) {
      continue;
    }
    S4_ASSIGN_OR_RETURN(Bytes content, ReadBlock(blk));
    uint64_t block_start = b * kBlockSize;
    uint64_t from = std::max(offset, block_start);
    uint64_t to = std::min(offset + length, block_start + kBlockSize);
    std::memcpy(out.data() + (from - offset), content.data() + (from - block_start), to - from);
  }
  return out;
}

Status FfsLikeServer::WriteFileRaw(uint32_t ino_num, uint64_t offset, ByteSpan data,
                                   bool sync_inode) {
  if (data.empty()) {
    return Status::Ok();
  }
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(ino_num));
  uint32_t group = GroupOfInode(ino_num);
  uint64_t old_size = ino->size;
  uint64_t first = offset / kBlockSize;
  uint64_t last = (offset + data.size() - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; ++b) {
    S4_ASSIGN_OR_RETURN(uint64_t blk, GetFileBlock(ino, group, b, /*allocate=*/true));
    uint64_t block_start = b * kBlockSize;
    uint64_t from = std::max(offset, block_start);
    uint64_t to = std::min(offset + data.size(), block_start + kBlockSize);
    Bytes content;
    if (from == block_start && to == block_start + kBlockSize) {
      content.assign(data.begin() + (from - offset), data.begin() + (to - offset));
    } else {
      // Partial block: read-modify-write in place.
      if (block_start < old_size) {
        S4_ASSIGN_OR_RETURN(content, ReadBlock(blk));
      } else {
        content.assign(kBlockSize, 0);
      }
      uint64_t valid = old_size > block_start
                           ? std::min<uint64_t>(old_size - block_start, kBlockSize)
                           : 0;
      std::memset(content.data() + valid, 0, kBlockSize - valid);
      std::memcpy(content.data() + (from - block_start), data.data() + (from - offset),
                  to - from);
    }
    S4_RETURN_IF_ERROR(WriteBlock(blk, content));
  }
  ino->size = std::max(ino->size, offset + data.size());
  ino->mtime = clock_->Now();
  if (!sync_inode) {
    dirty_meta_sectors_.insert(InodeSector(ino_num));
    return Status::Ok();
  }
  return WriteInodeMeta(ino_num);
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

Result<ParsedDir*> FfsLikeServer::LoadDir(FileHandle dir) {
  auto it = dir_cache_.find(dir);
  if (it != dir_cache_.end()) {
    return &it->second;
  }
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(dir)));
  if (ino->type != FileType::kDirectory) {
    return Status::InvalidArgument("not a directory");
  }
  S4_ASSIGN_OR_RETURN(Bytes stream, ReadFileRaw(static_cast<uint32_t>(dir), 0, ino->size));
  S4_ASSIGN_OR_RETURN(ParsedDir parsed, ParseDirStream(stream));
  return &(dir_cache_[dir] = std::move(parsed));
}

Status FfsLikeServer::AppendDirRecord(FileHandle dir, const DirRecord& record) {
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(dir)));
  Bytes encoded = EncodeDirRecord(record);
  S4_RETURN_IF_ERROR(
      WriteFileRaw(static_cast<uint32_t>(dir), ino->size, encoded, /*sync_inode=*/false));
  auto it = dir_cache_.find(dir);
  if (it != dir_cache_.end()) {
    ++it->second.record_count;
    if (record.op == DirRecord::Op::kAdd) {
      DirEntry e;
      e.name = record.name;
      e.handle = record.handle;
      e.type = record.type;
      it->second.entries[record.name] = e;
    } else {
      it->second.entries.erase(record.name);
    }
  }
  return Status::Ok();
}

Status FfsLikeServer::MaybeCompactDir(FileHandle dir) {
  auto it = dir_cache_.find(dir);
  if (it == dir_cache_.end() || !it->second.NeedsCompaction()) {
    return Status::Ok();
  }
  Bytes compacted = CompactDirStream(it->second);
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(dir)));
  uint64_t keep_blocks = (compacted.size() + kBlockSize - 1) / kBlockSize;
  S4_RETURN_IF_ERROR(FreeFileBlocks(ino, keep_blocks));
  ino->size = 0;
  S4_RETURN_IF_ERROR(
      WriteFileRaw(static_cast<uint32_t>(dir), 0, compacted, /*sync_inode=*/false));
  ino->size = compacted.size();
  it->second.record_count = it->second.entries.size();
  return WriteInodeMeta(static_cast<uint32_t>(dir));
}

Result<FileHandle> FfsLikeServer::Lookup(FileHandle dir, const std::string& name) {
  S4_ASSIGN_OR_RETURN(ParsedDir * parsed, LoadDir(dir));
  auto it = parsed->entries.find(name);
  if (it == parsed->entries.end()) {
    return Status::NotFound("no such name: " + name);
  }
  return it->second.handle;
}

Result<FileHandle> FfsLikeServer::CreateNode(FileHandle dir, const std::string& name,
                                             FileType type, uint32_t mode,
                                             const std::string& symlink_target) {
  S4_ASSIGN_OR_RETURN(ParsedDir * parsed, LoadDir(dir));
  if (parsed->entries.count(name) > 0) {
    return Status::AlreadyExists(name);
  }
  // New inodes land in the parent directory's cylinder group.
  S4_ASSIGN_OR_RETURN(uint32_t ino_num, AllocInode(GroupOfInode(static_cast<uint32_t>(dir))));
  Inode& ino = inodes_[ino_num];
  ino.type = type;
  ino.mode = mode;
  ino.ctime = ino.mtime = clock_->Now();
  S4_RETURN_IF_ERROR(WriteInodeMeta(ino_num));
  if (type == FileType::kSymlink) {
    S4_RETURN_IF_ERROR(WriteFileRaw(ino_num, 0, BytesOf(symlink_target), true));
  }
  DirRecord rec;
  rec.op = DirRecord::Op::kAdd;
  rec.type = type;
  rec.handle = ino_num;
  rec.name = name;
  S4_RETURN_IF_ERROR(AppendDirRecord(dir, rec));
  return FileHandle{ino_num};
}

Result<FileHandle> FfsLikeServer::CreateFile(FileHandle dir, const std::string& name,
                                             uint32_t mode) {
  return CreateNode(dir, name, FileType::kFile, mode, "");
}

Result<FileHandle> FfsLikeServer::Mkdir(FileHandle dir, const std::string& name,
                                        uint32_t mode) {
  return CreateNode(dir, name, FileType::kDirectory, mode, "");
}

Result<FileHandle> FfsLikeServer::Symlink(FileHandle dir, const std::string& name,
                                          const std::string& target) {
  return CreateNode(dir, name, FileType::kSymlink, 0777, target);
}

Status FfsLikeServer::RemoveNode(FileHandle dir, const std::string& name, bool want_dir) {
  S4_ASSIGN_OR_RETURN(ParsedDir * parsed, LoadDir(dir));
  auto it = parsed->entries.find(name);
  if (it == parsed->entries.end()) {
    return Status::NotFound(name);
  }
  bool is_dir = it->second.type == FileType::kDirectory;
  if (is_dir != want_dir) {
    return Status::InvalidArgument(want_dir ? "not a directory" : "is a directory");
  }
  uint32_t victim = static_cast<uint32_t>(it->second.handle);
  if (want_dir) {
    S4_ASSIGN_OR_RETURN(ParsedDir * victim_dir, LoadDir(victim));
    if (!victim_dir->entries.empty()) {
      return Status::FailedPrecondition("directory not empty");
    }
    dir_cache_.erase(victim);
  }
  S4_ASSIGN_OR_RETURN(Inode * vino, GetInode(victim));
  S4_RETURN_IF_ERROR(FreeFileBlocks(vino, 0));
  FreeInode(victim);
  S4_RETURN_IF_ERROR(WriteInodeMeta(victim));
  DirRecord rec;
  rec.op = DirRecord::Op::kRemove;
  rec.name = name;
  S4_RETURN_IF_ERROR(AppendDirRecord(dir, rec));
  return MaybeCompactDir(dir);
}

Status FfsLikeServer::Remove(FileHandle dir, const std::string& name) {
  return RemoveNode(dir, name, /*want_dir=*/false);
}

Status FfsLikeServer::Rmdir(FileHandle dir, const std::string& name) {
  return RemoveNode(dir, name, /*want_dir=*/true);
}

Status FfsLikeServer::Rename(FileHandle from_dir, const std::string& from_name,
                             FileHandle to_dir, const std::string& to_name) {
  S4_ASSIGN_OR_RETURN(ParsedDir * src, LoadDir(from_dir));
  auto it = src->entries.find(from_name);
  if (it == src->entries.end()) {
    return Status::NotFound(from_name);
  }
  DirEntry moving = it->second;
  S4_ASSIGN_OR_RETURN(ParsedDir * dst, LoadDir(to_dir));
  auto target = dst->entries.find(to_name);
  if (target != dst->entries.end()) {
    if (target->second.handle == moving.handle) {
      return Status::Ok();  // renamed onto itself: POSIX makes this a no-op
    }
    if (target->second.type == FileType::kDirectory) {
      return Status::InvalidArgument("target is a directory");
    }
    S4_RETURN_IF_ERROR(Remove(to_dir, to_name));
  }
  DirRecord del;
  del.op = DirRecord::Op::kRemove;
  del.name = from_name;
  S4_RETURN_IF_ERROR(AppendDirRecord(from_dir, del));
  DirRecord add;
  add.op = DirRecord::Op::kAdd;
  add.type = moving.type;
  add.handle = moving.handle;
  add.name = to_name;
  S4_RETURN_IF_ERROR(AppendDirRecord(to_dir, add));
  return Status::Ok();
}

Result<Bytes> FfsLikeServer::ReadFile(FileHandle file, uint64_t offset, uint64_t length) {
  return ReadFileRaw(static_cast<uint32_t>(file), offset, length);
}

Status FfsLikeServer::WriteFile(FileHandle file, uint64_t offset, ByteSpan data) {
  return WriteFileRaw(static_cast<uint32_t>(file), offset, data, /*sync_inode=*/true);
}

Result<FileAttr> FfsLikeServer::GetAttr(FileHandle file) {
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(file)));
  FileAttr attr;
  attr.type = ino->type;
  attr.mode = ino->mode;
  attr.uid = ino->uid;
  attr.size = ino->size;
  attr.ctime = ino->ctime;
  attr.mtime = ino->mtime;
  return attr;
}

Status FfsLikeServer::SetSize(FileHandle file, uint64_t size) {
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(file)));
  if (size < ino->size) {
    uint64_t keep_blocks = (size + kBlockSize - 1) / kBlockSize;
    S4_RETURN_IF_ERROR(FreeFileBlocks(ino, keep_blocks));
    if (size % kBlockSize != 0) {
      S4_ASSIGN_OR_RETURN(
          uint64_t blk,
          GetFileBlock(ino, GroupOfInode(static_cast<uint32_t>(file)), size / kBlockSize,
                       /*allocate=*/false));
      if (blk != 0) {
        S4_ASSIGN_OR_RETURN(Bytes content, ReadBlock(blk));
        std::memset(content.data() + size % kBlockSize, 0, kBlockSize - size % kBlockSize);
        S4_RETURN_IF_ERROR(WriteBlock(blk, content));
      }
    }
  }
  ino->size = size;
  ino->mtime = clock_->Now();
  return WriteInodeMeta(static_cast<uint32_t>(file));
}

Result<std::vector<DirEntry>> FfsLikeServer::ReadDir(FileHandle dir) {
  S4_ASSIGN_OR_RETURN(ParsedDir * parsed, LoadDir(dir));
  std::vector<DirEntry> out;
  out.reserve(parsed->entries.size());
  for (const auto& [name, e] : parsed->entries) {
    (void)name;
    out.push_back(e);
  }
  return out;
}

Result<std::string> FfsLikeServer::ReadLink(FileHandle link) {
  S4_ASSIGN_OR_RETURN(Inode * ino, GetInode(static_cast<uint32_t>(link)));
  S4_ASSIGN_OR_RETURN(Bytes target, ReadFileRaw(static_cast<uint32_t>(link), 0, ino->size));
  return StringOf(target);
}

Status FfsLikeServer::FlushMetadata() {
  for (uint64_t sector : dirty_meta_sectors_) {
    Bytes raw(kSectorSize, 0);
    S4_RETURN_IF_ERROR(device_->Write(sector, raw));
  }
  dirty_meta_sectors_.clear();
  for (auto& [blk, content] : pinned_meta_) {
    S4_RETURN_IF_ERROR(device_->Write(BlockSector(blk), content));
    buffer_cache_->Put(blk, content, content.size());
  }
  pinned_meta_.clear();
  return Status::Ok();
}

}  // namespace s4
