// FfsLikeServer: an in-place-update file server standing in for the paper's
// FreeBSD-FFS and Linux-ext2 NFS servers (Figures 3 and 4).
//
// Classic UNIX FFS layout on the shared simulated disk, with cylinder
// groups: the disk is divided into groups, each holding its own inode
// sub-table, allocation bitmap, and data blocks. New files' inodes are
// placed in their parent directory's group and file data in the inode's
// group, so the metadata writes of one operation are short seeks apart —
// the locality optimisation that keeps real FFS competitive.
//
// Directories use the same record-stream format as the S4 overlay so the
// two systems do comparable logical work per operation; the difference under
// test is purely in-place random updates vs. S4's log-structured writes.
//
// `sync_metadata` selects the two personalities:
//   true  -> FFS-like / NFSv2-correct: inode, indirect-block, and directory
//            updates are written synchronously before the op returns
//            (allocation bitmaps are write-behind, as in real FFS).
//   false -> Linux-2.2-ext2-with-"sync"-mount-like: data writes are
//            synchronous but metadata updates are buffered and written back
//            lazily — the paper attributes the Linux server's anomalously
//            fast SSH-configure phase to exactly this flaw.
#ifndef S4_SRC_BASELINE_FFS_LIKE_H_
#define S4_SRC_BASELINE_FFS_LIKE_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/lru.h"
#include "src/fs/dir_format.h"
#include "src/fs/file_system.h"
#include "src/lfs/format.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"

namespace s4 {

struct FfsOptions {
  uint32_t max_inodes = 65536;
  uint32_t cylinder_groups = 64;
  bool sync_metadata = true;
  uint64_t buffer_cache_bytes = 8ull << 20;
};

class FfsLikeServer : public FileSystemApi {
 public:
  static Result<std::unique_ptr<FfsLikeServer>> Format(BlockDevice* device, SimClock* clock,
                                                       FfsOptions options);

  Result<FileHandle> Root() override { return kRootInode; }
  Result<FileHandle> Lookup(FileHandle dir, const std::string& name) override;
  Result<FileHandle> CreateFile(FileHandle dir, const std::string& name,
                                uint32_t mode) override;
  Result<FileHandle> Mkdir(FileHandle dir, const std::string& name, uint32_t mode) override;
  Status Remove(FileHandle dir, const std::string& name) override;
  Status Rmdir(FileHandle dir, const std::string& name) override;
  Status Rename(FileHandle from_dir, const std::string& from_name, FileHandle to_dir,
                const std::string& to_name) override;
  Result<Bytes> ReadFile(FileHandle file, uint64_t offset, uint64_t length) override;
  Status WriteFile(FileHandle file, uint64_t offset, ByteSpan data) override;
  Result<FileAttr> GetAttr(FileHandle file) override;
  Status SetSize(FileHandle file, uint64_t size) override;
  Result<std::vector<DirEntry>> ReadDir(FileHandle dir) override;
  Result<FileHandle> Symlink(FileHandle dir, const std::string& name,
                             const std::string& target) override;
  Result<std::string> ReadLink(FileHandle link) override;

  // Writes back all deferred metadata (bitmaps; plus everything else in the
  // async personality — its bdflush equivalent).
  Status FlushMetadata();

 private:
  static constexpr uint32_t kRootInode = 1;
  static constexpr uint32_t kInodeSize = 256;  // on-disk bytes per inode

  struct Inode {
    bool used = false;
    FileType type = FileType::kFile;
    uint32_t mode = 0644;
    uint32_t uid = 0;
    uint64_t size = 0;
    SimTime ctime = 0;
    SimTime mtime = 0;
    uint64_t direct[12] = {0};
    uint64_t single_indirect = 0;
    uint64_t double_indirect = 0;
  };

  FfsLikeServer(BlockDevice* device, SimClock* clock, FfsOptions options);

  // --- cylinder-group geometry ---
  uint32_t GroupOfInode(uint32_t ino) const { return ino / inodes_per_group_; }
  uint32_t GroupOfBlock(uint64_t blk) const {
    return static_cast<uint32_t>((blk - 1) / blocks_per_group_);
  }
  uint64_t GroupStart(uint32_t group) const {
    return 1 + static_cast<uint64_t>(group) * group_sectors_;
  }
  DiskAddr InodeSector(uint32_t ino) const;
  DiskAddr BlockSector(uint64_t blk) const;
  DiskAddr BitmapSector(uint64_t blk) const;

  // --- allocation (group-hinted) ---
  Result<uint32_t> AllocInode(uint32_t hint_group);
  void FreeInode(uint32_t ino);
  Status WriteInodeMeta(uint32_t ino);
  Result<uint64_t> AllocBlock(uint32_t hint_group);
  void FreeBlock(uint64_t blk);
  void MarkBitmapDirty(uint64_t blk);

  // --- block mapping through indirect blocks ---
  Result<uint64_t> GetFileBlock(Inode* ino, uint32_t group, uint64_t index, bool allocate);
  Status FreeFileBlocks(Inode* ino, uint64_t from_index);
  Result<Bytes> ReadIndirect(uint64_t blk);
  Status WriteIndirect(uint64_t blk, const Bytes& content);

  // --- data I/O ---
  Result<Bytes> ReadBlock(uint64_t blk);
  Status WriteBlock(uint64_t blk, ByteSpan content);

  // --- directories / files ---
  Result<ParsedDir*> LoadDir(FileHandle dir);
  Status AppendDirRecord(FileHandle dir, const DirRecord& record);
  Status MaybeCompactDir(FileHandle dir);
  // `sync_inode=false` defers the inode update (directory mtime/size on an
  // append — real FFS piggybacks those).
  Status WriteFileRaw(uint32_t ino_num, uint64_t offset, ByteSpan data, bool sync_inode);
  Result<Bytes> ReadFileRaw(uint32_t ino_num, uint64_t offset, uint64_t length);
  Result<FileHandle> CreateNode(FileHandle dir, const std::string& name, FileType type,
                                uint32_t mode, const std::string& symlink_target);
  Status RemoveNode(FileHandle dir, const std::string& name, bool want_dir);

  Result<Inode*> GetInode(uint32_t ino);

  BlockDevice* device_;
  SimClock* clock_;
  FfsOptions options_;

  // Geometry.
  uint32_t groups_ = 0;
  uint64_t group_sectors_ = 0;        // span of one group
  uint32_t inodes_per_group_ = 0;
  uint64_t inode_sectors_per_group_ = 0;
  uint64_t bitmap_sectors_per_group_ = 0;
  uint64_t blocks_per_group_ = 0;
  uint64_t data_block_count_ = 0;

  std::vector<Inode> inodes_;
  std::vector<bool> block_bitmap_;
  std::vector<uint64_t> group_rotor_;  // per-group allocation rotor
  std::unique_ptr<LruCache<uint64_t, Bytes>> buffer_cache_;
  std::unordered_map<FileHandle, ParsedDir> dir_cache_;
  // Deferred metadata: sector-level cost entries (bitmaps, async inodes).
  std::unordered_set<uint64_t> dirty_meta_sectors_;
  // Async-dirty blocks whose authoritative content is pinned in memory
  // until FlushMetadata (indirect + directory blocks).
  std::unordered_map<uint64_t, Bytes> pinned_meta_;
};

}  // namespace s4

#endif  // S4_SRC_BASELINE_FFS_LIKE_H_
