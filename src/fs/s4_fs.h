// S4FileSystem: the "S4 client" daemon of Figure 1 — a user-level NFS-to-S4
// translator that overlays an NFSv2-style file system on the drive's flat
// object namespace.
//
//   - Directories are objects holding add/remove records (name -> handle).
//   - NFS attributes live in each object's opaque attribute space.
//   - File handles hash directly to ObjectIds.
//   - To honour NFSv2 stable-storage semantics, every state-modifying NFS
//     operation is durable before it returns (the drive normally caches
//     writes): its last mutating RPC carries the sync bit, so the drive
//     syncs in that RPC's round trip, as an NFSv3 stable write does. The
//     paper's client sent a separate Sync RPC instead.
//   - Create, Mkdir, Remove and Rmdir send their object op and the directory
//     record in one batch frame, the append linked to the op (NFSv4
//     COMPOUND-style); the paper's client sent them as separate RPCs.
//   - Aggressive read-only attribute and directory caches cut the RPC count,
//     as in the paper (section 4.1.2).
#ifndef S4_SRC_FS_S4_FS_H_
#define S4_SRC_FS_S4_FS_H_

#include <memory>
#include <string>

#include "src/cache/lru.h"
#include "src/fs/dir_format.h"
#include "src/fs/file_system.h"
#include "src/fs/nfs_attr.h"
#include "src/rpc/client.h"

namespace s4 {

struct S4FileSystemStats {
  uint64_t rpc_syncs = 0;       // ops synced by their sync bit, plus Commit's Syncs
  uint64_t deferred_syncs = 0;  // mutating ops whose sync was coalesced
  uint64_t attr_cache_hits = 0;
  uint64_t attr_cache_misses = 0;
  uint64_t dir_cache_hits = 0;
  uint64_t dir_cache_misses = 0;
};

// Tuning of the translator's RPC traffic. The default is the paper's
// prototype's discipline: every mutating NFS op is synced before it returns
// (the NFSv2 stable-storage rule section 5.2 blames for most of S4's
// latency).
struct S4FileSystemOptions {
  // Mutating ops coalesced under one sync. 1 = sync every op (strict NFSv2
  // stable storage); N defers the sync until N ops ran, which lets the drive
  // group-commit their journal entries into one chunk write.
  uint32_t group_commit_ops = 1;
  // Unread: a due sync always rides the op's own frame now. Kept only
  // because the repository benchmark (perfbench/array_postmark.cc) still
  // sets it; it goes with that benchmark's next change.
  bool batch_rpcs = false;
};

class S4FileSystem : public FileSystemApi {
 public:
  // Creates a fresh file system: makes the root directory object and binds
  // it to the partition name.
  static Result<std::unique_ptr<S4FileSystem>> Format(S4ClientApi* client,
                                                      const std::string& partition,
                                                      S4FileSystemOptions options = {});
  // Attaches to an existing file system (PMount).
  static Result<std::unique_ptr<S4FileSystem>> Mount(S4ClientApi* client,
                                                     const std::string& partition,
                                                     S4FileSystemOptions options = {});

  ~S4FileSystem() override;

  Result<FileHandle> Root() override { return root_; }
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

  const S4FileSystemStats& stats() const { return stats_; }
  S4ClientApi* client() { return client_; }
  const S4FileSystemOptions& options() const { return options_; }

  // Forces any deferred sync to the drive now (a group-commit boundary).
  // No-op when nothing is pending. Callers that need a durability point
  // under group_commit_ops > 1 (unmount, crash-consistency checks,
  // benchmark epochs) must call this.
  Status Commit();

 private:
  S4FileSystem(S4ClientApi* client, S4FileSystemOptions options);

  Result<ParsedDir*> LoadDir(FileHandle dir);
  // Appends `record` to `dir`'s stream. `last` marks the op's final mutating
  // RPC, sent through MutateThenSyncOp.
  Status AppendDirRecord(FileHandle dir, const DirRecord& record, bool last = false);
  // Mirrors an append of `record` to `dir` in the caches. A failed append
  // (or a failed sync after it) drops the cached parse, and is returned.
  Status NoteDirAppend(FileHandle dir, const DirRecord& record, const Status& appended);
  // Sends `lead` (a Create or Delete) and the append of `record` to `dir` in
  // one batch frame. The append is linked to the lead: it runs only if the
  // lead succeeded, and the drive completes the record with the lead's value
  // as its handle. A failed lead returns its error with `dir` untouched.
  // `last` marks the op's final frame, which carries the sync bit when a
  // sync is due. Returns the lead's value (the new object id after a Create).
  Result<uint64_t> LeadWithDirRecord(RpcRequest lead, FileHandle dir, DirRecord record,
                                     bool last);
  // Remove and Rmdir: sends `lead`, the Delete of `name`'s object, with
  // `name`'s remove record, then rewrites the stream compacted when
  // tombstones dominate it. The op's sync rides its last frame: the batch, or
  // the rewrite's Truncate.
  Status RemoveDirRecord(RpcRequest lead, FileHandle dir, const std::string& name);
  Result<FileHandle> CreateNode(FileHandle dir, const std::string& name, FileType type,
                                uint32_t mode, const std::string& symlink_target);
  Result<NfsAttrBlob> LoadAttrBlob(FileHandle file, uint64_t* size_out, SimTime* mtime_out,
                                   SimTime* ctime_out);
  // Sends an op's final mutating RPC (status-only) under the NFSv2 commit
  // discipline. When the sync is due (every op with group_commit_ops == 1,
  // else every Nth) the request carries the sync bit, and the drive syncs
  // before it replies; otherwise the sync is deferred and the drive
  // group-commits the deferred ops' entries at the next one.
  Status MutateThenSyncOp(RpcRequest req);
  bool SyncDue() const { return unsynced_ops_ + 1 >= options_.group_commit_ops; }
  // Counts an op whose final frame succeeded, `synced` or deferred. A due op
  // that fails syncs nothing, so the ops deferred before it stay pending.
  void NoteLastFrameDone(bool synced);

  S4ClientApi* client_;
  S4FileSystemOptions options_;
  FileHandle root_ = 0;
  uint32_t unsynced_ops_ = 0;  // mutating ops since the last sync
  LruCache<FileHandle, ParsedDir> dir_cache_;
  LruCache<FileHandle, FileAttr> attr_cache_;
  S4FileSystemStats stats_;
};

}  // namespace s4

#endif  // S4_SRC_FS_S4_FS_H_
