#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstring>

#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

char* PageRef::data() {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].data;
}

const char* PageRef::data() const {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].data;
}

Latch& PageRef::latch() {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].latch;
}

void PageRef::MarkDirty() {
  OIR_DCHECK(valid());
  bm_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

void PageRef::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(frame_, id_);
    bm_ = nullptr;
    frame_ = SIZE_MAX;
    id_ = kInvalidPageId;
  }
}

BufferManager::BufferManager(Disk* disk, size_t pool_frames, size_t shards)
    : disk_(disk), page_size_(disk->page_size()) {
  OIR_CHECK(pool_frames >= 8);
  if (shards == 0) {
    // One shard per 16 frames, at most 8: shards stay large relative to
    // the handful of pages one operation pins at a time.
    shards = 1;
    while (shards < 8 && shards * 32 <= pool_frames) shards *= 2;
  }
  OIR_CHECK((shards & (shards - 1)) == 0 && shards <= pool_frames / 4);
  shard_mask_ = static_cast<uint32_t>(shards - 1);
  frames_.resize(pool_frames);
  frame_data_.reset(new char[pool_frames * page_size_]);
  for (size_t i = 0; i < pool_frames; ++i) {
    frames_[i].data = frame_data_.get() + i * page_size_;
  }
  shards_.resize(shards);
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    Shard& sh = shards_[s];
    sh.start = next;
    sh.count = pool_frames / shards + (s < pool_frames % shards ? 1 : 0);
    next += sh.count;
    sh.free_list.reserve(sh.count);
    for (size_t i = 0; i < sh.count; ++i) {
      sh.free_list.push_back(sh.start + sh.count - 1 - i);
    }
  }
  OIR_CHECK(next == pool_frames);
}

BufferManager::~BufferManager() {
  StopWriteBack();
#ifndef NDEBUG
  for (const Frame& f : frames_) OIR_DCHECK(f.pin_count.load() == 0);
#endif
}

void BufferManager::Unpin(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  OIR_CHECK(f.page_id == id);
  if (!f.ref.load(std::memory_order_relaxed)) {
    f.ref.store(true, std::memory_order_relaxed);
  }
  const uint32_t prev = f.pin_count.fetch_sub(1);
  OIR_CHECK(prev > 0);
  if (prev == 1) WakeWaiters(ShardOf(id));
}

void BufferManager::MapFrameLocked(Shard& sh, size_t frame, PageId id) {
  Frame& f = frames_[frame];
  f.page_id = id;
  f.pin_count.store(1);
  f.dirty.store(false, std::memory_order_relaxed);
  f.loading.store(true);
  f.ref.store(true, std::memory_order_relaxed);
  sh.table[id] = frame;
}

Status BufferManager::AllocateFrameLocked(Shard& sh, PageId for_page,
                                          size_t* out_frame) {
  auto& c = GlobalCounters::Local();
  for (;;) {
    if (!sh.free_list.empty()) {
      *out_frame = sh.free_list.back();
      sh.free_list.pop_back();
      MapFrameLocked(sh, *out_frame, for_page);
      return Status::OK();
    }
    // Clock scan over this shard's frames for an evictable one. Clean
    // victims are preferred — evicting one needs no I/O and never drops the
    // table lock — and dirty frames scanned past are handed to the
    // background write-back worker so the next scan finds them clean. The
    // dirty fallback (inline write-back) remains for pools where every
    // evictable frame is dirty. The table lock is exclusive, so a pin
    // count read as zero stays zero: that is the claim rule.
    size_t scanned = 0;
    size_t victim = SIZE_MAX;
    size_t dirty_victim = SIZE_MAX;
    int enqueued = 0;
    const bool async_wb = wb_running();
    while (scanned < 2 * sh.count) {
      size_t idx = sh.start + sh.clock_hand;
      Frame& f = frames_[idx];
      sh.clock_hand = (sh.clock_hand + 1) % sh.count;
      ++scanned;
      if (f.pin_count.load() != 0 || f.loading.load()) continue;
      const bool dirty = f.dirty.load(std::memory_order_acquire);
      if (dirty && async_wb && enqueued < 4) {
        EnqueueWriteBack(f.page_id);
        ++enqueued;
      }
      if (f.ref.exchange(false, std::memory_order_relaxed)) continue;
      if (!dirty) {
        victim = idx;
        break;
      }
      if (dirty_victim == SIZE_MAX) dirty_victim = idx;
    }
    if (victim == SIZE_MAX) victim = dirty_victim;
    if (victim == SIZE_MAX) {
      return Status::NoSpace("buffer pool exhausted: all frames pinned");
    }
    c.pool_evictions.fetch_add(1, std::memory_order_relaxed);
    OIR_CRASH_POINT("pool.evict");
    Frame& vf = frames_[victim];
    const PageId old_id = vf.page_id;
    // Claim the dirty bit before copying so a marker racing with the
    // write-back leaves the frame dirty again.
    const bool was_dirty = vf.dirty.exchange(false, std::memory_order_acquire);
    vf.loading.store(true);  // hits wait out the write-back
    if (was_dirty) {
      sh.table_mu.Unlock();
      Status s = WriteBack(victim);
      sh.table_mu.Lock();
      if (!s.ok()) {
        vf.dirty.store(true, std::memory_order_release);
        vf.loading.store(false);
        WakeWaiters(sh);
        return s;
      }
      if (sh.table.count(for_page) != 0) {
        // Another thread mapped `for_page` while we were writing back the
        // victim. Leave the (now clean) victim in place and tell the caller
        // to retry its lookup.
        vf.loading.store(false);
        WakeWaiters(sh);
        return Status::Busy("fetch raced");
      }
    }
    sh.table.erase(old_id);
    MapFrameLocked(sh, victim, for_page);
    *out_frame = victim;
    WakeWaiters(sh);  // wake fetchers of old_id so they retry
    return Status::OK();
  }
}

Status BufferManager::WriteBack(size_t frame) {
  OIR_CRASH_POINT("pool.writeback.pre");
  Frame& f = frames_[frame];
  // Copy a consistent image under the S latch.
  std::unique_ptr<char[]> img(new char[page_size_]);
  f.latch.LockS();
  std::memcpy(img.get(), f.data, page_size_);
  f.latch.UnlockS();
  const Lsn page_lsn = HeaderOf(img.get())->page_lsn;
  if (log_flusher_ != nullptr && page_lsn != kInvalidLsn) {
    OIR_RETURN_IF_ERROR(log_flusher_->FlushTo(page_lsn));
  }
  OIR_CRASH_POINT("pool.writeback.wal_flushed");
  GlobalCounters::Local().pool_writebacks.fetch_add(1,
                                                  std::memory_order_relaxed);
  {
    obs::Span io(obs::Site::kPoolWrite);
    OIR_RETURN_IF_ERROR(disk_->WritePage(f.page_id, img.get()));
  }
  OIR_CRASH_POINT("pool.writeback.post");
  return Status::OK();
}

Status BufferManager::Fetch(PageId id, PageRef* out) {
  OIR_CHECK(id != kInvalidPageId);
  obs::Span span(obs::Site::kPoolFetch);
  auto& c = GlobalCounters::Local();
  Shard& sh = ShardOf(id);
  for (;;) {
    size_t frame = SIZE_MAX;
    {
      ReaderMutexLock rl(sh.table_mu);
      auto it = sh.table.find(id);
      if (it != sh.table.end()) {
        frame = it->second;
        Frame& f = frames_[frame];
        if (!f.loading.load()) {
          // The hit: no claim can run while the table lock is shared.
          f.pin_count.fetch_add(1);
          if (!f.ref.load(std::memory_order_relaxed)) {
            f.ref.store(true, std::memory_order_relaxed);
          }
          c.pool_hits.fetch_add(1, std::memory_order_relaxed);
          *out = PageRef(this, frame, id);
          return Status::OK();
        }
      }
    }
    if (frame != SIZE_MAX) {
      Frame& f = frames_[frame];
      WaitUnless(sh, [&f] { return !f.loading.load(); });
      continue;
    }
    sh.table_mu.Lock();
    if (sh.table.count(id) != 0) {  // mapped since the lookup
      sh.table_mu.Unlock();
      continue;
    }
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    sh.table_mu.Unlock();
    if (alloc.IsBusy()) continue;  // raced with another fetcher; retry
    OIR_RETURN_IF_ERROR(alloc);
    c.pool_misses.fetch_add(1, std::memory_order_relaxed);
    // Frame is mapped to `id`, pinned once, loading. Read without locks.
    Frame& f = frames_[frame];
    Status s;
    {
      obs::Span io(obs::Site::kPoolRead);
      s = disk_->ReadPage(id, f.data);
    }
    if (!s.ok()) {
      // Undo: unmap and free the frame before anyone can pin it.
      {
        WriterMutexLock wl(sh.table_mu);
        sh.table.erase(id);
        f.page_id = kInvalidPageId;
        f.pin_count.store(0);
        f.loading.store(false);
        sh.free_list.push_back(frame);
      }
      WakeWaiters(sh);
      return s;
    }
    f.loading.store(false);
    WakeWaiters(sh);
    *out = PageRef(this, frame, id);
    return Status::OK();
  }
}

Status BufferManager::Create(PageId id, PageRef* out) {
  OIR_CHECK(id != kInvalidPageId);
  Shard& sh = ShardOf(id);
  for (;;) {
    sh.table_mu.Lock();
    auto it = sh.table.find(id);
    if (it != sh.table.end()) {
      const size_t frame = it->second;
      Frame& f = frames_[frame];
      if (f.loading.load() || f.pin_count.load() != 0) {
        // Stale cached copy of a previously freed page: reuse the frame
        // once a load or any lingering reader pins drain.
        sh.table_mu.Unlock();
        WaitUnless(sh, [&f] {
          return !f.loading.load() && f.pin_count.load() == 0;
        });
        continue;
      }
      // Create's reuse claim: exclusive table lock, no pin.
      f.pin_count.store(1);
      f.ref.store(true, std::memory_order_relaxed);
      f.dirty.store(false, std::memory_order_relaxed);
      std::memset(f.data, 0, page_size_);
      sh.table_mu.Unlock();
      *out = PageRef(this, frame, id);
      return Status::OK();
    }
    size_t frame;
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    if (alloc.IsBusy()) {  // raced with another fetcher; retry
      sh.table_mu.Unlock();
      continue;
    }
    if (!alloc.ok()) {
      sh.table_mu.Unlock();
      return alloc;
    }
    Frame& f = frames_[frame];
    std::memset(f.data, 0, page_size_);
    f.loading.store(false);
    sh.table_mu.Unlock();
    WakeWaiters(sh);
    *out = PageRef(this, frame, id);
    return Status::OK();
  }
}

bool BufferManager::ClaimFlush(PageId id, size_t* out_frame) {
  Shard& sh = ShardOf(id);
  for (;;) {
    size_t frame;
    {
      ReaderMutexLock rl(sh.table_mu);
      auto it = sh.table.find(id);
      if (it == sh.table.end()) return false;
      frame = it->second;
      Frame& f = frames_[frame];
      if (!f.loading.load()) {
        f.pin_count.fetch_add(1);  // the hit rule: shared lock, not loading
        if (!f.flushing.exchange(true)) {
          *out_frame = frame;
          return true;
        }
        // Another flusher holds the claim. The frame stays mapped (it is
        // pinned twice), so dropping this pin cannot free it.
        f.pin_count.fetch_sub(1);
      }
    }
    Frame& f = frames_[frame];
    WaitUnless(sh, [&f] { return !f.loading.load() && !f.flushing.load(); });
  }
}

void BufferManager::ReleaseFlush(size_t frame, PageId id, bool wrote) {
  Frame& f = frames_[frame];
  if (!wrote) {
    // The claimed content never reached disk: restore the dirty bit so a
    // later flush retries it.
    f.dirty.store(true, std::memory_order_release);
  }
  f.flushing.store(false);
  const uint32_t prev = f.pin_count.fetch_sub(1);
  OIR_CHECK(prev > 0);
  WakeWaiters(ShardOf(id));  // flushing-claim and pin waiters
}

Status BufferManager::FlushPage(PageId id) {
  size_t frame;
  if (!ClaimFlush(id, &frame)) return Status::OK();  // not cached
  Frame& f = frames_[frame];
  if (!f.dirty.exchange(false, std::memory_order_acquire)) {
    ReleaseFlush(frame, id, /*wrote=*/true);
    return Status::OK();
  }
  Status s = WriteBack(frame);
  ReleaseFlush(frame, id, /*wrote=*/s.ok());
  return s;
}

Status BufferManager::FlushAll() {
  OIR_RETURN_IF_ERROR(WriteBackDirty());
  // Pages cleaned earlier by eviction or the write-back worker were written
  // without a barrier; the checkpoint needs all of them on stable storage.
  return disk_->Sync();
}

Status BufferManager::WriteBackDirty() {
  std::vector<PageId> ids;
  for (Shard& sh : shards_) {
    ReaderMutexLock l(sh.table_mu);
    for (const auto& [id, frame] : sh.table) {
      if (frames_[frame].dirty.load(std::memory_order_acquire)) {
        ids.push_back(id);
      }
    }
  }
  if (ids.empty()) return Status::OK();
  if (wb_running()) {
    // Route the dirty set through the write-back worker as one batch and
    // wait on its barrier: checkpoints share the queue (and the dedup)
    // with eviction-triggered cleaning instead of competing with it.
    WbBatch batch;
    {
      MutexLock l(wb_mu_);
      if (!wb_stop_) {
        batch.remaining = ids.size();
        for (PageId id : ids) {
          wb_queue_.push_back(WbItem{id, &batch});
        }
        GlobalCounters::Local().pool_wb_enqueued.fetch_add(
            ids.size(), std::memory_order_relaxed);
        wb_cv_.NotifyAll();
        obs::Span wait(obs::Site::kPoolWait);
        while (batch.remaining != 0) {
          wb_done_cv_.Wait(wb_mu_);
        }
        return batch.status;
      }
    }
  }
  for (PageId id : ids) {
    OIR_RETURN_IF_ERROR(FlushPage(id));
  }
  return Status::OK();
}

void BufferManager::StartWriteBack() {
  if (wb_thread_.joinable()) return;
  {
    MutexLock l(wb_mu_);
    wb_stop_ = false;
  }
  wb_thread_ = std::thread([this] { WriteBackLoop(); });
}

void BufferManager::StopWriteBack() {
  if (!wb_thread_.joinable()) return;
  {
    MutexLock l(wb_mu_);
    wb_stop_ = true;
  }
  wb_cv_.NotifyAll();
  wb_thread_.join();
}

void BufferManager::EnqueueWriteBack(PageId id) {
  MutexLock l(wb_mu_);
  if (wb_stop_) return;
  if (!wb_queued_ids_.insert(id).second) return;  // already queued
  OIR_CRASH_POINT("pool.wb.enqueue");
  wb_queue_.push_back(WbItem{id, nullptr});
  GlobalCounters::Local().pool_wb_enqueued.fetch_add(1,
                                                   std::memory_order_relaxed);
  wb_cv_.NotifyOne();
}

void BufferManager::CancelWriteBack() {
  if (!wb_thread_.joinable()) return;
  MutexLock l(wb_mu_);
  while (!wb_queue_.empty()) {
    WbItem item = wb_queue_.front();
    wb_queue_.pop_front();
    if (item.batch != nullptr) {
      if (item.batch->status.ok()) {
        item.batch->status = Status::Busy("write-back canceled");
      }
      if (--item.batch->remaining == 0) wb_done_cv_.NotifyAll();
    } else {
      wb_queued_ids_.erase(item.id);
    }
  }
  obs::Span wait(obs::Site::kPoolWait);
  while (wb_in_progress_ != 0) {
    wb_done_cv_.Wait(wb_mu_);
  }
}

void BufferManager::WriteBackLoop() {
  auto& c = GlobalCounters::Local();
  for (;;) {
    WbItem item;
    {
      MutexLock l(wb_mu_);
      while (wb_queue_.empty() && !wb_stop_) {
        wb_cv_.Wait(wb_mu_);  // wait-state: write-back worker idle
      }
      // Drain the queue before honoring stop: pending eviction write-backs
      // finish while the log flusher is still alive.
      if (wb_queue_.empty()) return;
      item = wb_queue_.front();
      wb_queue_.pop_front();
      if (item.batch == nullptr) wb_queued_ids_.erase(item.id);
      ++wb_in_progress_;
    }
    OIR_CRASH_POINT("pool.wb.write");
    // FlushPage claims the dirty bit under the shard mutex, pins the frame,
    // and honors WAL-before-data; a page evicted or cleaned since it was
    // queued is a cheap no-op.
    Status s = FlushPage(item.id);
    if (s.ok()) {
      c.pool_wb_async_writes.fetch_add(1, std::memory_order_relaxed);
    }
    {
      MutexLock l(wb_mu_);
      --wb_in_progress_;
      if (item.batch != nullptr) {
        if (!s.ok() && item.batch->status.ok()) item.batch->status = s;
        if (--item.batch->remaining == 0) wb_done_cv_.NotifyAll();
      }
      if (wb_in_progress_ == 0) wb_done_cv_.NotifyAll();
    }
  }
}

Status BufferManager::FlushPages(const std::vector<PageId>& ids,
                                 uint32_t io_pages) {
  if (io_pages < 1 || io_pages > frames_.size()) {
    return Status::InvalidArgument("io_pages outside [1, pool_frames]");
  }
  std::vector<PageId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::unique_ptr<char[]> run_buf(new char[static_cast<size_t>(io_pages) *
                                           page_size_]);
  size_t i = 0;
  while (i < sorted.size()) {
    // Build a physically contiguous run of up to io_pages dirty pages. Each
    // page's flushing claim (and pin) is held from its snapshot until the
    // run's WriteMulti lands: the WAL flush below can block for a group-
    // commit round, and another flusher writing a newer image inside that
    // window would make our parked snapshot regress the disk image once it
    // finally lands — silently losing the in-between updates if a
    // checkpoint bounded the redo scan in the meantime. Claims are taken in
    // ascending page order, so concurrent FlushPages calls cannot deadlock.
    uint32_t run_len = 0;
    Lsn max_lsn = kInvalidLsn;
    PageId run_start = sorted[i];
    std::vector<std::pair<size_t, PageId>> claimed;  // (frame, page)
    auto release_run = [&](bool wrote) {
      for (const auto& [fidx, pid] : claimed) ReleaseFlush(fidx, pid, wrote);
      claimed.clear();
    };
    while (i < sorted.size() && run_len < io_pages &&
           sorted[i] == run_start + run_len) {
      PageId id = sorted[i];
      size_t frame;
      if (!ClaimFlush(id, &frame)) {
        // Not cached (already written back or evicted). Break the run here
        // so disk offsets stay aligned.
        if (run_len == 0) {
          ++i;
          run_start = i < sorted.size() ? sorted[i] : kInvalidPageId;
          continue;
        }
        break;
      }
      // The pin and the claim are held until the run is written.
      Frame& fr = frames_[frame];
      fr.dirty.store(false, std::memory_order_relaxed);  // claimed below
      fr.latch.LockS();
      std::memcpy(run_buf.get() + static_cast<size_t>(run_len) * page_size_,
                  fr.data, page_size_);
      fr.latch.UnlockS();
      Lsn lsn = HeaderOf(run_buf.get() +
                         static_cast<size_t>(run_len) * page_size_)
                    ->page_lsn;
      max_lsn = std::max(max_lsn, lsn);
      claimed.emplace_back(frame, id);
      ++run_len;
      ++i;
    }
    if (run_len == 0) continue;
    OIR_CRASH_POINT("pool.flushpages.run");
    if (log_flusher_ != nullptr && max_lsn != kInvalidLsn) {
      Status s = log_flusher_->FlushTo(max_lsn);
      if (!s.ok()) {
        release_run(/*wrote=*/false);
        return s;
      }
    }
    OIR_CRASH_POINT("pool.flushpages.wal_flushed");
    GlobalCounters::Local().pool_writebacks.fetch_add(
        run_len, std::memory_order_relaxed);
    Status s;
    {
      obs::Span io(obs::Site::kPoolWrite);
      s = disk_->WriteMulti(run_start, run_len, run_buf.get());
    }
    release_run(/*wrote=*/s.ok());
    if (!s.ok()) return s;
  }
  // The forced write is only forced once it is on stable storage: the
  // caller frees the old pages next. This also covers pages of `ids` that
  // eviction already wrote back without a barrier.
  return disk_->Sync();
}

Status BufferManager::Prefetch(PageId first, uint32_t count) {
  // Same guard as FlushPages' io_pages: the staged run must fit the pool.
  if (count < 1 || count > frames_.size()) {
    return Status::InvalidArgument("prefetch run outside [1, pool_frames]");
  }
  if (first == kInvalidPageId || first >= disk_->NumPages()) {
    return Status::InvalidArgument("prefetch of invalid page");
  }
  // Read-ahead is speculative, so a run overshooting the device is
  // trimmed, not an error.
  count = std::min(count, disk_->NumPages() - first);

  // Reserve frames for the non-resident pages BEFORE touching the disk.
  // The reservations sit in the page tables with loading=true, so a
  // concurrent fetcher of one of these pages blocks on `loading` instead
  // of issuing its own read — and, crucially, no writer can slip a newer
  // image into the pool between our disk read and the copy-out below
  // (modifying a page requires fetching it first). Resident pages are
  // skipped: the cached copy wins.
  struct Slot {
    PageId id;
    size_t frame;
    uint32_t off;  // page offset inside the staging buffer
  };
  std::vector<Slot> slots;
  slots.reserve(count);
  auto undo = [&](Status why) {
    for (const Slot& s : slots) {
      Shard& sh = ShardOf(s.id);
      Frame& f = frames_[s.frame];
      {
        WriterMutexLock l(sh.table_mu);
        sh.table.erase(s.id);
        f.page_id = kInvalidPageId;
        f.pin_count.store(0);
        f.loading.store(false);
        sh.free_list.push_back(s.frame);
      }
      WakeWaiters(sh);
    }
    return why;
  };
  for (uint32_t i = 0; i < count; ++i) {
    const PageId id = first + i;
    Shard& sh = ShardOf(id);
    sh.table_mu.Lock();
    if (sh.table.count(id) != 0) {  // cached copy wins: skip
      sh.table_mu.Unlock();
      continue;
    }
    size_t frame;
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    sh.table_mu.Unlock();
    if (alloc.IsBusy()) continue;     // another thread just mapped it
    if (alloc.IsNoSpace()) continue;  // best-effort: shard full of pins
    // Unlock before undo(): it takes the table lock of every reserved
    // slot, which can include this very shard.
    if (!alloc.ok()) return undo(alloc);
    slots.push_back(Slot{id, frame, i});
  }
  if (slots.empty()) return Status::OK();  // fully resident: no I/O at all

  // One large transfer covering the whole span (resident gaps are read
  // into the staging buffer and simply not copied out), then distribute.
  std::unique_ptr<char[]> stage(
      new char[static_cast<size_t>(count) * page_size_]);
  Status rs;
  {
    obs::Span io(obs::Site::kPoolRead);
    rs = disk_->ReadPages(first, count, stage.get());
  }
  if (!rs.ok()) return undo(rs);
  auto& c = GlobalCounters::Local();
  for (const Slot& s : slots) {
    // Frame is mapped, pinned once, loading: nobody else touches it.
    Frame& f = frames_[s.frame];
    std::memcpy(f.data,
                stage.get() + static_cast<size_t>(s.off) * page_size_,
                page_size_);
    f.pin_count.store(0);
    f.loading.store(false);
    c.pool_prefetched.fetch_add(1, std::memory_order_relaxed);
    WakeWaiters(ShardOf(s.id));
  }
  return Status::OK();
}

void BufferManager::Discard(PageId id) {
  Shard& sh = ShardOf(id);
  for (;;) {
    size_t frame;
    {
      WriterMutexLock l(sh.table_mu);
      auto it = sh.table.find(id);
      if (it == sh.table.end()) return;
      frame = it->second;
      Frame& f = frames_[frame];
      if (!f.loading.load() && f.pin_count.load() == 0) {
        // Discard's claim: exclusive table lock, no pin.
        f.dirty.store(false, std::memory_order_relaxed);
        f.page_id = kInvalidPageId;
        sh.free_list.push_back(frame);
        sh.table.erase(it);
        return;
      }
    }
    // A reader (e.g. a scan repositioning itself) may hold a short pin on
    // a page being freed; wait for it to drain.
    Frame& f = frames_[frame];
    WaitUnless(sh, [&f] {
      return !f.loading.load() && f.pin_count.load() == 0;
    });
  }
}

void BufferManager::DropAll() {
  // Queued write-backs must not run against the post-crash pool (and an
  // in-progress one holds a pin, which the loop below forbids).
  CancelWriteBack();
  for (Shard& sh : shards_) {
    WriterMutexLock l(sh.table_mu);
    for (auto& [id, frame] : sh.table) {
      Frame& f = frames_[frame];
      OIR_CHECK(f.pin_count.load() == 0 && !f.loading.load());
      f.dirty.store(false, std::memory_order_relaxed);
      f.page_id = kInvalidPageId;
      sh.free_list.push_back(frame);
    }
    sh.table.clear();
  }
}

size_t BufferManager::CachedPages() const {
  size_t total = 0;
  for (const Shard& sh : shards_) {
    ReaderMutexLock l(sh.table_mu);
    total += sh.table.size();
  }
  return total;
}

}  // namespace oir
