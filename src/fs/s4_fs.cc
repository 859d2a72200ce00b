#include "src/fs/s4_fs.h"

namespace s4 {
namespace {

// The prototype's S4 client caches directories and attributes aggressively
// (section 4.1.2); large PostMark directories need real budget.
constexpr uint64_t kDirCacheBytes = 16ull << 20;
constexpr uint64_t kAttrCacheBytes = 2ull << 20;

FileAttr MakeAttr(const NfsAttrBlob& blob, uint64_t size, SimTime mtime, SimTime ctime) {
  FileAttr a;
  a.type = blob.type;
  a.mode = blob.mode;
  a.uid = blob.uid;
  a.size = size;
  a.mtime = mtime;
  a.ctime = ctime;
  return a;
}

}  // namespace

S4FileSystem::S4FileSystem(S4ClientApi* client, S4FileSystemOptions options)
    : client_(client), options_(options), dir_cache_(kDirCacheBytes),
      attr_cache_(kAttrCacheBytes) {
  if (options_.group_commit_ops == 0) {
    options_.group_commit_ops = 1;
  }
}

S4FileSystem::~S4FileSystem() {
  // Best effort: leave no deferred sync behind on teardown.
  (void)Commit();
}

Result<std::unique_ptr<S4FileSystem>> S4FileSystem::Format(S4ClientApi* client,
                                                           const std::string& partition,
                                                           S4FileSystemOptions options) {
  NfsAttrBlob root_attr;
  root_attr.type = FileType::kDirectory;
  root_attr.mode = 0755;
  root_attr.uid = client->creds().user;
  S4_ASSIGN_OR_RETURN(ObjectId root, client->Create(root_attr.Encode()));
  RpcRequest bind;
  bind.op = RpcOp::kPCreate;
  bind.name = partition;
  bind.object = root;
  bind.sync = true;
  S4_ASSIGN_OR_RETURN(RpcResponse bound, client->Call(std::move(bind)));
  S4_RETURN_IF_ERROR(bound.ToStatus());
  auto fs = std::unique_ptr<S4FileSystem>(new S4FileSystem(client, options));
  fs->root_ = root;
  return fs;
}

Result<std::unique_ptr<S4FileSystem>> S4FileSystem::Mount(S4ClientApi* client,
                                                          const std::string& partition,
                                                          S4FileSystemOptions options) {
  S4_ASSIGN_OR_RETURN(ObjectId root, client->PMount(partition));
  auto fs = std::unique_ptr<S4FileSystem>(new S4FileSystem(client, options));
  fs->root_ = root;
  return fs;
}

Status S4FileSystem::Commit() {
  if (unsynced_ops_ == 0) {
    return Status::Ok();
  }
  unsynced_ops_ = 0;
  ++stats_.rpc_syncs;
  return client_->Sync();
}

void S4FileSystem::NoteLastFrameDone(bool synced) {
  if (synced) {
    unsynced_ops_ = 0;
    ++stats_.rpc_syncs;
  } else {
    ++unsynced_ops_;
    ++stats_.deferred_syncs;
  }
}

Status S4FileSystem::MutateThenSyncOp(RpcRequest req) {
  req.sync = SyncDue();
  const bool synced = req.sync;
  S4_ASSIGN_OR_RETURN(RpcResponse resp, client_->Call(std::move(req)));
  S4_RETURN_IF_ERROR(resp.ToStatus());
  NoteLastFrameDone(synced);
  return Status::Ok();
}

Result<ParsedDir*> S4FileSystem::LoadDir(FileHandle dir) {
  if (ParsedDir* cached = dir_cache_.Get(dir); cached != nullptr) {
    ++stats_.dir_cache_hits;
    return cached;
  }
  ++stats_.dir_cache_misses;
  S4_ASSIGN_OR_RETURN(ObjectAttrs attrs, client_->GetAttr(dir));
  NfsAttrBlob blob;
  if (!attrs.opaque.empty()) {
    S4_ASSIGN_OR_RETURN(blob, NfsAttrBlob::Decode(attrs.opaque));
  }
  if (blob.type != FileType::kDirectory) {
    return Status::InvalidArgument("not a directory");
  }
  S4_ASSIGN_OR_RETURN(Bytes stream, client_->Read(dir, 0, attrs.size));
  S4_ASSIGN_OR_RETURN(ParsedDir parsed, ParseDirStream(stream));
  uint64_t cost = 64 + parsed.entries.size() * 48;
  dir_cache_.Put(dir, std::move(parsed), cost);
  return dir_cache_.Peek(dir);
}

Status S4FileSystem::AppendDirRecord(FileHandle dir, const DirRecord& record, bool last) {
  Bytes encoded = EncodeDirRecord(record);
  Status appended;
  if (last) {
    RpcRequest req;
    req.op = RpcOp::kAppend;
    req.object = dir;
    req.data = std::move(encoded);
    appended = MutateThenSyncOp(std::move(req));
  } else {
    appended = client_->Append(dir, encoded).status();
  }
  return NoteDirAppend(dir, record, appended);
}

Status S4FileSystem::NoteDirAppend(FileHandle dir, const DirRecord& record,
                                   const Status& appended) {
  attr_cache_.Remove(dir);
  if (!appended.ok()) {
    // A failed sync does not undo the append before it: re-read the stream.
    dir_cache_.Remove(dir);
    return appended;
  }
  // Keep the cached parse coherent instead of invalidating (single-client
  // loopback mount, as in the prototype).
  if (ParsedDir* cached = dir_cache_.Peek(dir); cached != nullptr) {
    ++cached->record_count;
    if (record.op == DirRecord::Op::kAdd) {
      DirEntry e;
      e.name = record.name;
      e.handle = record.handle;
      e.type = record.type;
      cached->entries[record.name] = e;
    } else {
      cached->entries.erase(record.name);
    }
  }
  return Status::Ok();
}

Result<uint64_t> S4FileSystem::LeadWithDirRecord(RpcRequest lead, FileHandle dir,
                                                 DirRecord record, bool last) {
  RpcRequest append;
  append.op = RpcOp::kAppend;
  append.object = dir;
  append.data = EncodeDirRecordWithoutHandle(record);
  append.link = true;
  append.sync = last && SyncDue();
  const bool synced = append.sync;
  std::vector<RpcRequest> reqs;
  reqs.reserve(2);
  reqs.push_back(std::move(lead));
  reqs.push_back(std::move(append));
  Result<std::vector<RpcResponse>> resps = client_->CallBatch(std::move(reqs));
  if (!resps.ok()) {
    // Whether anything ran is unknown: re-read the directory.
    return NoteDirAppend(dir, record, resps.status());
  }
  // A failed lead skipped the append: the directory is untouched.
  S4_RETURN_IF_ERROR((*resps)[0].ToStatus());
  record.handle = (*resps)[0].value;
  S4_RETURN_IF_ERROR(NoteDirAppend(dir, record, (*resps)[1].ToStatus()));
  if (last) {
    NoteLastFrameDone(synced);
  }
  return record.handle;
}

Status S4FileSystem::RemoveDirRecord(RpcRequest lead, FileHandle dir, const std::string& name) {
  // `name` is a live entry, so its remove record adds a tombstone.
  ParsedDir* cached = dir_cache_.Peek(dir);
  const bool compact =
      cached != nullptr &&
      ParsedDir::NeedsCompaction(cached->record_count + 1, cached->entries.size() - 1);
  DirRecord rec;
  rec.op = DirRecord::Op::kRemove;
  rec.name = name;
  S4_RETURN_IF_ERROR(LeadWithDirRecord(std::move(lead), dir, rec, /*last=*/!compact).status());
  if (!compact) {
    return Status::Ok();
  }
  Bytes compacted = CompactDirStream(*cached);
  S4_RETURN_IF_ERROR(client_->Write(dir, 0, compacted));
  RpcRequest truncate;
  truncate.op = RpcOp::kTruncate;
  truncate.object = dir;
  truncate.length = compacted.size();
  S4_RETURN_IF_ERROR(MutateThenSyncOp(std::move(truncate)));
  cached->record_count = cached->entries.size();
  return Status::Ok();
}

Result<FileHandle> S4FileSystem::Lookup(FileHandle dir, const std::string& name) {
  S4_ASSIGN_OR_RETURN(ParsedDir* parsed, LoadDir(dir));
  auto it = parsed->entries.find(name);
  if (it == parsed->entries.end()) {
    return Status::NotFound("no such name: " + name);
  }
  return it->second.handle;
}

Result<FileHandle> S4FileSystem::CreateNode(FileHandle dir, const std::string& name,
                                            FileType type, uint32_t mode,
                                            const std::string& symlink_target) {
  S4_ASSIGN_OR_RETURN(ParsedDir* parsed, LoadDir(dir));
  if (parsed->entries.count(name) > 0) {
    return Status::AlreadyExists(name);
  }
  NfsAttrBlob blob;
  blob.type = type;
  blob.mode = mode;
  blob.uid = client_->creds().user;
  DirRecord rec;
  rec.op = DirRecord::Op::kAdd;
  rec.type = type;
  rec.name = name;
  if (type != FileType::kSymlink) {
    RpcRequest create;
    create.op = RpcOp::kCreate;
    create.data = blob.Encode();
    return LeadWithDirRecord(std::move(create), dir, std::move(rec), /*last=*/true);
  }
  // A symlink's target Write names the new object, so its Create goes alone.
  S4_ASSIGN_OR_RETURN(ObjectId id, client_->Create(blob.Encode()));
  S4_RETURN_IF_ERROR(client_->Write(id, 0, BytesOf(symlink_target)));
  rec.handle = id;
  S4_RETURN_IF_ERROR(AppendDirRecord(dir, rec, /*last=*/true));
  return id;
}

Result<FileHandle> S4FileSystem::CreateFile(FileHandle dir, const std::string& name,
                                            uint32_t mode) {
  return CreateNode(dir, name, FileType::kFile, mode, "");
}

Result<FileHandle> S4FileSystem::Mkdir(FileHandle dir, const std::string& name, uint32_t mode) {
  return CreateNode(dir, name, FileType::kDirectory, mode, "");
}

Result<FileHandle> S4FileSystem::Symlink(FileHandle dir, const std::string& name,
                                         const std::string& target) {
  return CreateNode(dir, name, FileType::kSymlink, 0777, target);
}

Status S4FileSystem::Remove(FileHandle dir, const std::string& name) {
  S4_ASSIGN_OR_RETURN(ParsedDir* parsed, LoadDir(dir));
  auto it = parsed->entries.find(name);
  if (it == parsed->entries.end()) {
    return Status::NotFound(name);
  }
  if (it->second.type == FileType::kDirectory) {
    return Status::InvalidArgument("is a directory");
  }
  RpcRequest del;
  del.op = RpcOp::kDelete;
  del.object = it->second.handle;
  attr_cache_.Remove(del.object);
  return RemoveDirRecord(std::move(del), dir, name);
}

Status S4FileSystem::Rmdir(FileHandle dir, const std::string& name) {
  S4_ASSIGN_OR_RETURN(ParsedDir* parsed, LoadDir(dir));
  auto it = parsed->entries.find(name);
  if (it == parsed->entries.end()) {
    return Status::NotFound(name);
  }
  if (it->second.type != FileType::kDirectory) {
    return Status::InvalidArgument("not a directory");
  }
  FileHandle victim = it->second.handle;
  S4_ASSIGN_OR_RETURN(ParsedDir* victim_dir, LoadDir(victim));
  if (!victim_dir->entries.empty()) {
    return Status::FailedPrecondition("directory not empty");
  }
  dir_cache_.Remove(victim);
  attr_cache_.Remove(victim);
  RpcRequest del;
  del.op = RpcOp::kDelete;
  del.object = victim;
  return RemoveDirRecord(std::move(del), dir, name);
}

Status S4FileSystem::Rename(FileHandle from_dir, const std::string& from_name,
                            FileHandle to_dir, const std::string& to_name) {
  S4_ASSIGN_OR_RETURN(ParsedDir* src, LoadDir(from_dir));
  auto it = src->entries.find(from_name);
  if (it == src->entries.end()) {
    return Status::NotFound(from_name);
  }
  DirEntry moving = it->second;

  // NFS rename semantics: silently replace an existing target file.
  S4_ASSIGN_OR_RETURN(ParsedDir* dst, LoadDir(to_dir));
  auto target = dst->entries.find(to_name);
  if (target != dst->entries.end()) {
    if (target->second.handle == moving.handle) {
      return Status::Ok();  // renamed onto itself: POSIX makes this a no-op
    }
    if (target->second.type == FileType::kDirectory) {
      return Status::InvalidArgument("target is a directory");
    }
    S4_RETURN_IF_ERROR(client_->Delete(target->second.handle));
    attr_cache_.Remove(target->second.handle);
    DirRecord del;
    del.op = DirRecord::Op::kRemove;
    del.name = to_name;
    S4_RETURN_IF_ERROR(AppendDirRecord(to_dir, del));
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
  return AppendDirRecord(to_dir, add, /*last=*/true);
}

Result<Bytes> S4FileSystem::ReadFile(FileHandle file, uint64_t offset, uint64_t length) {
  return client_->Read(file, offset, length);
}

Status S4FileSystem::WriteFile(FileHandle file, uint64_t offset, ByteSpan data) {
  RpcRequest req;
  req.op = RpcOp::kWrite;
  req.object = file;
  req.offset = offset;
  req.data.assign(data.begin(), data.end());
  attr_cache_.Remove(file);
  return MutateThenSyncOp(std::move(req));
}

Result<NfsAttrBlob> S4FileSystem::LoadAttrBlob(FileHandle file, uint64_t* size_out,
                                               SimTime* mtime_out, SimTime* ctime_out) {
  S4_ASSIGN_OR_RETURN(ObjectAttrs attrs, client_->GetAttr(file));
  *size_out = attrs.size;
  *mtime_out = attrs.modify_time;
  *ctime_out = attrs.create_time;
  if (attrs.opaque.empty()) {
    return NfsAttrBlob{};
  }
  return NfsAttrBlob::Decode(attrs.opaque);
}

Result<FileAttr> S4FileSystem::GetAttr(FileHandle file) {
  if (FileAttr* cached = attr_cache_.Get(file); cached != nullptr) {
    ++stats_.attr_cache_hits;
    return *cached;
  }
  ++stats_.attr_cache_misses;
  uint64_t size = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
  S4_ASSIGN_OR_RETURN(NfsAttrBlob blob, LoadAttrBlob(file, &size, &mtime, &ctime));
  FileAttr attr = MakeAttr(blob, size, mtime, ctime);
  attr_cache_.Put(file, attr, 64);
  return attr;
}

Status S4FileSystem::SetSize(FileHandle file, uint64_t size) {
  RpcRequest req;
  req.op = RpcOp::kTruncate;
  req.object = file;
  req.length = size;
  attr_cache_.Remove(file);
  return MutateThenSyncOp(std::move(req));
}

Result<std::vector<DirEntry>> S4FileSystem::ReadDir(FileHandle dir) {
  S4_ASSIGN_OR_RETURN(ParsedDir* parsed, LoadDir(dir));
  std::vector<DirEntry> out;
  out.reserve(parsed->entries.size());
  for (const auto& [name, e] : parsed->entries) {
    (void)name;
    out.push_back(e);
  }
  return out;
}

Result<std::string> S4FileSystem::ReadLink(FileHandle link) {
  S4_ASSIGN_OR_RETURN(ObjectAttrs attrs, client_->GetAttr(link));
  S4_ASSIGN_OR_RETURN(Bytes target, client_->Read(link, 0, attrs.size));
  return StringOf(target);
}

}  // namespace s4
