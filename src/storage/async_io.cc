#include "storage/async_io.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/falloc.h>
#include <sys/syscall.h>
#endif

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/waitstate.h"

namespace oir {

void TryElevateLogThreadPriority() {
  // SCHED_FIFO priority 1: the thread preempts every CFS task the moment
  // it is woken, which is exactly the property a commit ack needs. Safe
  // here because these threads always block between short bursts.
  sched_param sp{};
  sp.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) == 0) return;
#if defined(__linux__)
  // Unprivileged fallback: nice applies per-thread on Linux.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), -10);
#endif
}

namespace {
// Set after the first pthread_setschedparam failure so unprivileged
// processes pay one probe, not two syscalls per logged commit.
std::atomic<bool> g_commit_boost_unavailable{false};
}  // namespace

ScopedCommitPriorityBoost::ScopedCommitPriorityBoost() {
  if (g_commit_boost_unavailable.load(std::memory_order_relaxed)) return;
  sched_param old{};
  if (pthread_getschedparam(pthread_self(), &old_policy_, &old) != 0) {
    g_commit_boost_unavailable.store(true, std::memory_order_relaxed);
    return;
  }
  old_priority_ = old.sched_priority;
  sched_param sp{};
  sp.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) != 0) {
    g_commit_boost_unavailable.store(true, std::memory_order_relaxed);
    return;
  }
  boosted_ = true;
}

ScopedCommitPriorityBoost::~ScopedCommitPriorityBoost() {
  if (!boosted_) return;
  sched_param sp{};
  sp.sched_priority = old_priority_;
  pthread_setschedparam(pthread_self(), old_policy_, &sp);
}

namespace {

// Keeps the file's block allocation ahead of the append frontier so every
// segment write lands on already-allocated blocks. With allocation done,
// fdatasync has no block-mapping metadata to journal — which both trims the
// common case and removes a multi-millisecond tail where the log's sync
// waits on a filesystem journal commit shared with concurrent data-page
// write-back. KEEP_SIZE leaves i_size untouched, so recovery's torn-tail
// scan still sees exactly the bytes that were written. Best-effort: on
// filesystems without fallocate the log simply keeps paying for allocation
// inside the sync, as before.
constexpr uint64_t kWalPreallocChunk = 64ull << 20;

void PreallocateAhead(int fd, uint64_t end_offset,
                      std::atomic<uint64_t>* allocated) {
#if defined(__linux__) && defined(FALLOC_FL_KEEP_SIZE)
  uint64_t cur = allocated->load(std::memory_order_relaxed);
  if (end_offset <= cur) return;
  uint64_t target = (end_offset / kWalPreallocChunk + 1) * kWalPreallocChunk;
  // Concurrent callers may both extend; fallocate over an already-allocated
  // range is an idempotent no-op, so the race is harmless.
  if (::syscall(SYS_fallocate, fd, FALLOC_FL_KEEP_SIZE,
                static_cast<off_t>(cur),
                static_cast<off_t>(target - cur)) != 0) {
    return;
  }
  allocated->store(target, std::memory_order_relaxed);
#else
  (void)fd;
  (void)end_offset;
  (void)allocated;
#endif
}

Status PwriteAll(int fd, const char* data, size_t len, uint64_t off) {
  size_t done = 0;
  while (done < len) {
    ssize_t w = ::pwrite(fd, data + done, len - done,
                         static_cast<off_t>(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal pwrite: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Status PwriteLogWriter::Create(const std::string& path, uint32_t inflight,
                               CompletionFn cb,
                               std::unique_ptr<PwriteLogWriter>* out) {
  int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("open wal writer fd " + path + ": " +
                           std::strerror(errno));
  }
  out->reset(new PwriteLogWriter(fd, inflight, std::move(cb)));
  return Status::OK();
}

PwriteLogWriter::PwriteLogWriter(int fd, uint32_t inflight, CompletionFn cb)
    : fd_(fd), cb_(std::move(cb)) {
  uint32_t workers = inflight < 1 ? 1 : inflight;
  if (workers > 8) workers = 8;
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PwriteLogWriter::~PwriteLogWriter() {
  {
    MutexLock l(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  ::close(fd_);
}

void PwriteLogWriter::Submit(uint64_t seq, uint64_t offset, std::string data) {
  {
    MutexLock l(mu_);
    queue_.push_back(Request{seq, offset, std::move(data)});
    ++outstanding_;
  }
  cv_.NotifyOne();
}

void PwriteLogWriter::Drain() {
  MutexLock l(mu_);
  obs::Span wait(obs::Site::kWalDrain);
  while (outstanding_ != 0) cv_.Wait(mu_);
}

void PwriteLogWriter::WorkerLoop() {
  TryElevateLogThreadPriority();
  mu_.Lock();
  for (;;) {
    // wait-state: WAL segment writer idle
    while (queue_.empty() && !stop_) cv_.Wait(mu_);
    if (queue_.empty() && stop_) break;
    Request req = std::move(queue_.front());
    queue_.pop_front();
    mu_.Unlock();
    PreallocateAhead(fd_, req.offset + req.data.size(), &allocated_);
    // Write+sync span: the device's share of commit latency.
    obs::Span io(obs::Site::kWalSegmentIo);
    Status s = PwriteAll(fd_, req.data.data(), req.data.size(), req.offset);
    if (s.ok() && ::fdatasync(fd_) != 0) {
      s = Status::IOError(std::string("wal sync: ") + std::strerror(errno));
    }
    io.End();
    // No locks held across the callback (the contract the WAL's
    // completion path relies on).
    cb_(req.seq, s);
    mu_.Lock();
    --outstanding_;
    cv_.NotifyAll();  // wake Drain() and idle workers alike
  }
  mu_.Unlock();
}

}  // namespace oir
