#include "durability/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "durability/crc32c.h"
#include "durability/serialize.h"
#include "obs/obs.h"

namespace htune {

namespace {

constexpr size_t kHeaderSize = 8;          // magic + version
constexpr size_t kFrameOverhead = 4 + 1 + 4;  // length + type + crc
// Guards the frame walk against a corrupted length field pointing far past
// the buffer; no legitimate record (even a snapshot of a large job) comes
// near this.
constexpr uint32_t kMaxPayload = 1u << 30;

std::string ParentDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

/// fsyncs the directory containing `path` so a just-created or just-renamed
/// entry survives power loss. Durability of file *contents* (fsync on the
/// file) and durability of the file's *existence* (fsync on the directory)
/// are separate guarantees on POSIX filesystems.
Status SyncParentDir(const std::string& path) {
  const std::string dir = ParentDirOf(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return InternalError("journal: cannot open directory " + dir +
                         " for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return InternalError("journal: fsync of directory " + dir +
                         " failed: " + detail);
  }
  ::close(fd);
  return OkStatus();
}

/// Writes all of `bytes` to `fd`, which is open on `path`: EINTR restarts
/// the write and a partial write resumes from the persisted prefix. Any
/// other failure is an explicit status naming how many bytes reached the
/// file, so a short write is never reported as success. The caller closes
/// `fd` either way.
Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    const std::string detail =
        n < 0 ? std::strerror(errno) : "write returned 0";
    return InternalError("journal: short write to " + path + ": " +
                         std::to_string(written) + " of " +
                         std::to_string(bytes.size()) +
                         " bytes persisted: " + detail);
  }
  return OkStatus();
}

}  // namespace

std::string_view JournalRecordTypeToString(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kRunStart:
      return "RUN_START";
    case JournalRecordType::kPost:
      return "POST";
    case JournalRecordType::kReprice:
      return "REPRICE";
    case JournalRecordType::kPayment:
      return "PAYMENT";
    case JournalRecordType::kCompletion:
      return "COMPLETION";
    case JournalRecordType::kReviewEnd:
      return "REVIEW_END";
    case JournalRecordType::kSnapshot:
      return "SNAPSHOT";
    case JournalRecordType::kRunEnd:
      return "RUN_END";
  }
  return "UNKNOWN";
}

Status InMemoryJournalStorage::Append(std::string_view bytes) {
  bytes_.append(bytes.data(), bytes.size());
  return OkStatus();
}

Status InMemoryJournalStorage::Truncate(uint64_t size) {
  if (size < bytes_.size()) {
    bytes_.resize(static_cast<size_t>(size));
  }
  return OkStatus();
}

StatusOr<std::string> FileJournalStorage::Load() {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      // A journal that does not exist yet is simply fresh.
      return std::string();
    }
    return InternalError("journal: cannot open " + path_ +
                         " for read: " + std::strerror(errno));
  }
  std::string bytes;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got > 0) {
      bytes.append(buffer, static_cast<size_t>(got));
      continue;
    }
    if (got == 0) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return InternalError("journal: read error on " + path_ + ": " + detail);
  }
  ::close(fd);
  return bytes;
}

Status FileJournalStorage::Append(std::string_view bytes) {
  const int fd = ::open(path_.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("journal: cannot open " + path_ +
                         " for append: " + std::strerror(errno));
  }
  if (const Status written = WriteAll(fd, bytes, path_); !written.ok()) {
    ::close(fd);
    return written;
  }
  if (::close(fd) != 0) {
    return InternalError("journal: close after append to " + path_ +
                         " failed: " + std::strerror(errno));
  }
  return OkStatus();
}

Status FileJournalStorage::Truncate(uint64_t size) {
  struct stat st;
  if (::stat(path_.c_str(), &st) != 0) {
    // Nothing on disk: truncating a fresh journal to 0 is a no-op. Any
    // other stat failure (ENOTDIR, EIO, EACCES) is a broken path, not an
    // absent journal.
    if (errno == ENOENT && size == 0) {
      return OkStatus();
    }
    return InternalError("journal: cannot stat " + path_ + ": " +
                         std::strerror(errno));
  }
  if (static_cast<uint64_t>(st.st_size) <= size) {
    return OkStatus();
  }
  if (::truncate(path_.c_str(), static_cast<off_t>(size)) != 0) {
    return InternalError("journal: cannot truncate " + path_ + ": " +
                         std::strerror(errno));
  }
  return OkStatus();
}

Status FileJournalStorage::Flush() {
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return OkStatus();  // nothing appended yet: nothing to sync
    }
    return InternalError("journal: cannot open " + path_ +
                         " for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return InternalError("journal: fsync of " + path_ + " failed: " + detail);
  }
  ::close(fd);
  if (!dir_synced_) {
    // First flush since this handle created the file: make the directory
    // entry itself durable, once. Subsequent flushes only need the data.
    HTUNE_RETURN_IF_ERROR(SyncParentDir(path_));
    dir_synced_ = true;
  }
  return OkStatus();
}

Status AtomicReplaceFile(const std::string& path, std::string_view bytes,
                         const ReplaceFileHook& hook) {
  const std::string temp = path + ".tmp";
  {
    const int fd = ::open(temp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return InternalError("journal: cannot create " + temp + ": " +
                           std::strerror(errno));
    }
    if (const Status written = WriteAll(fd, bytes, temp); !written.ok()) {
      ::close(fd);
      return written;
    }
    if (::fsync(fd) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(fd);
      return InternalError("journal: fsync of " + temp + " failed: " + detail);
    }
    if (::close(fd) != 0) {
      return InternalError("journal: close of " + temp +
                           " failed: " + std::strerror(errno));
    }
  }
  if (hook) {
    HTUNE_RETURN_IF_ERROR(hook("temp_written"));
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    return InternalError("journal: rename " + temp + " -> " + path +
                         " failed: " + std::strerror(errno));
  }
  if (hook) {
    HTUNE_RETURN_IF_ERROR(hook("renamed"));
  }
  HTUNE_RETURN_IF_ERROR(SyncParentDir(path));
  if (hook) {
    HTUNE_RETURN_IF_ERROR(hook("dir_synced"));
  }
  return OkStatus();
}

Status CrashInjectingStorage::CrashStatus() {
  return ResourceExhaustedError(
      "injected crash: journal storage failed mid-write");
}

Status CrashInjectingStorage::Append(std::string_view bytes) {
  if (crashed_) {
    return CrashStatus();
  }
  if (bytes.size() <= budget_) {
    budget_ -= bytes.size();
    return inner_->Append(bytes);
  }
  // Torn write: the prefix that fit reaches the disk, then the process
  // dies. The inner append's own status is irrelevant — the crash wins.
  (void)inner_->Append(bytes.substr(0, static_cast<size_t>(budget_)));
  budget_ = 0;
  crashed_ = true;
  return CrashStatus();
}

std::string EncodeJournalHeader(const JournalFormat& format) {
  std::string header(format.magic);
  Encoder version;
  version.PutU32(format.version);
  header += version.bytes();
  return header;
}

std::string EncodeJournalRecord(JournalRecordType type,
                                std::string_view payload) {
  std::string bytes;
  bytes.reserve(kFrameOverhead + payload.size());
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU8(static_cast<uint8_t>(type));
  bytes += frame.bytes();
  bytes.append(payload.data(), payload.size());
  Encoder crc;
  crc.PutU32(Crc32c(bytes));
  bytes += crc.bytes();
  return bytes;
}

StatusOr<JournalContents> ScanJournal(std::string_view bytes,
                                      const JournalFormat& format) {
  const auto bad_magic = [&format] {
    const std::string name(format.name);
    return InvalidArgumentError(name + ": not a " + name + " file (bad magic)");
  };
  JournalContents contents;
  contents.version = format.version;
  if (bytes.empty()) {
    return contents;  // fresh log
  }
  const std::string_view magic = format.magic;
  if (bytes.size() < kHeaderSize) {
    // A torn header write: nothing trustworthy, recover to empty — unless
    // the bytes do not even start like our magic, in which case this is not
    // our file and truncating it would destroy someone's data.
    const size_t n = std::min(bytes.size(), magic.size());
    if (bytes.substr(0, n) != magic.substr(0, n)) {
      return bad_magic();
    }
    contents.truncated_tail = true;
    return contents;
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return bad_magic();
  }
  {
    Decoder header(bytes.substr(magic.size(), 4));
    uint32_t version = 0;
    HTUNE_RETURN_IF_ERROR(header.GetU32(&version));
    if (version != format.version) {
      return InvalidArgumentError(std::string(format.name) +
                                  ": unsupported format version " +
                                  std::to_string(version));
    }
  }
  contents.valid_bytes = kHeaderSize;

  size_t offset = kHeaderSize;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kFrameOverhead) {
      break;  // torn frame header/footer
    }
    Decoder prefix(bytes.substr(offset, 5));
    uint32_t length = 0;
    uint8_t type = 0;
    HTUNE_RETURN_IF_ERROR(prefix.GetU32(&length));
    HTUNE_RETURN_IF_ERROR(prefix.GetU8(&type));
    if (length > kMaxPayload || bytes.size() - offset - kFrameOverhead <
                                    static_cast<size_t>(length)) {
      break;  // corrupt length or torn payload
    }
    const std::string_view framed = bytes.substr(offset, 5 + length);
    Decoder footer(bytes.substr(offset + 5 + length, 4));
    uint32_t stored_crc = 0;
    HTUNE_RETURN_IF_ERROR(footer.GetU32(&stored_crc));
    if (Crc32c(framed) != stored_crc) {
      break;  // bit-flipped record
    }
    if (type < 1 || type > format.last_record_type) {
      break;  // unknown record type: cannot trust anything after it
    }
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(type);
    record.payload = std::string(framed.substr(5));
    offset += 5 + length + 4;
    record.end_offset = offset;
    contents.records.push_back(std::move(record));
    contents.valid_bytes = offset;
  }
  contents.truncated_tail = contents.valid_bytes < bytes.size();
  return contents;
}

void EndJournalPrefixAt(JournalContents* contents, size_t index) {
  if (index >= contents->records.size()) {
    return;
  }
  contents->valid_bytes =
      index == 0 ? kHeaderSize : contents->records[index - 1].end_offset;
  contents->records.resize(index);
  contents->truncated_tail = true;
}

StatusOr<JournalContents> OpenJournal(JournalStorage& storage) {
  HTUNE_ASSIGN_OR_RETURN(const std::string bytes, storage.Load());
  HTUNE_ASSIGN_OR_RETURN(JournalContents contents, ScanJournal(bytes));
  if (contents.truncated_tail) {
    HTUNE_RETURN_IF_ERROR(storage.Truncate(contents.valid_bytes));
  }
  return contents;
}

JournalWriter::JournalWriter(JournalStorage* storage, uint64_t existing_bytes,
                             const JournalFormat& format)
    : storage_(storage),
      format_(format),
      header_written_(existing_bytes > 0),
      valid_bytes_(existing_bytes) {}

void JournalWriter::EnableRetry(const RetryPolicy& policy,
                                uint64_t jitter_seed) {
  retry_enabled_ = true;
  retry_policy_ = policy;
  jitter_ = SplitMix64(jitter_seed);
}

Status JournalWriter::AppendWithRetry(std::string_view bytes) {
  if (!retry_enabled_) {
    HTUNE_RETURN_IF_ERROR(storage_->Append(bytes));
    valid_bytes_ += bytes.size();
    return OkStatus();
  }
  const Status status = RetryTransient(
      retry_policy_, jitter_,
      [&]() -> Status { return storage_->Append(bytes); },
      // Repair between attempts: a failed append may have persisted any
      // prefix (the torn-write model), so drop back to the last known-good
      // boundary before writing the record again.
      [&]() -> Status {
        HTUNE_OBS_COUNTER_ADD("resilience.journal_repairs", 1);
        return storage_->Truncate(valid_bytes_);
      });
  HTUNE_RETURN_IF_ERROR(status);
  valid_bytes_ += bytes.size();
  return OkStatus();
}

Status JournalWriter::Append(JournalRecordType type,
                             std::string_view payload) {
  return AppendFramed(EncodeJournalRecord(type, payload));
}

Status JournalWriter::AppendFramed(std::string_view record) {
  HTUNE_OBS_SPAN("journal.append");
  if (!header_written_) {
    HTUNE_RETURN_IF_ERROR(AppendWithRetry(EncodeJournalHeader(format_)));
    header_written_ = true;
  }
  HTUNE_OBS_COUNTER_ADD("journal.appends", 1);
  HTUNE_OBS_COUNTER_ADD("journal.appended_bytes", record.size());
  return AppendWithRetry(record);
}

Status JournalWriter::Flush() {
  if (!retry_enabled_) {
    return storage_->Flush();
  }
  return RetryTransient(retry_policy_, jitter_,
                        [&]() -> Status { return storage_->Flush(); });
}

}  // namespace htune
