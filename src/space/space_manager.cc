#include "space/space_manager.h"

#include <algorithm>
#include <map>

#include "testing/crash_point.h"
#include "util/logging.h"

namespace oir {

SpaceManager::SpaceManager(Disk* disk, LogManager* log, PageId first_data_page)
    : disk_(disk),
      log_(log),
      first_data_page_(first_data_page),
      next_unused_(first_data_page) {}

SpaceManager::~SpaceManager() {
  for (auto& slot : dir_) delete[] slot.load(std::memory_order_relaxed);
}

PageState SpaceManager::GetState(PageId page) const {
  if (page < first_data_page_) return PageState::kAllocated;
  const size_t idx = page - first_data_page_;
  const std::atomic<PageState>* chunk =
      dir_[idx >> kChunkBits].load(std::memory_order_acquire);
  if (chunk == nullptr) return PageState::kFree;
  return chunk[idx & (kChunkPages - 1)].load(std::memory_order_acquire);
}

std::atomic<PageState>& SpaceManager::SlotLocked(size_t idx) {
  std::atomic<std::atomic<PageState>*>& slot = dir_[idx >> kChunkBits];
  std::atomic<PageState>* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new std::atomic<PageState>[kChunkPages]();  // all kFree
    slot.store(chunk, std::memory_order_release);
  }
  return chunk[idx & (kChunkPages - 1)];
}

void SpaceManager::Transition(PageId page, PageState from, PageState to) {
  OIR_CHECK(page >= first_data_page_ && page < next_unused_);
  std::atomic<PageState>& s = SlotLocked(page - first_data_page_);
  OIR_CHECK(s.load(std::memory_order_relaxed) == from);
  s.store(to, std::memory_order_release);
}

Status SpaceManager::ExtendLocked(uint32_t n, PageId* first) {
  PageId start = next_unused_;
  if (static_cast<uint64_t>(start) + n > disk_->NumPages()) {
    // Grow the device with some headroom.
    uint32_t want = start + n;
    uint32_t target = std::max<uint32_t>(want, disk_->NumPages() * 2);
    OIR_RETURN_IF_ERROR(disk_->Extend(target));
  }
  next_unused_ = start + n;  // the new pages' bytes already read kFree
  *first = start;
  return Status::OK();
}

Status SpaceManager::ReserveRunLocked(uint32_t n, PageId* first) {
  // Look for n contiguous free pages below the high-water mark. The paper's
  // page manager prefers "a chunk of large contiguous free disk space";
  // scanning the in-memory state map is our equivalent.
  uint32_t run = 0;
  for (size_t i = 0; i < SizeLocked(); ++i) {
    if (StateLocked(i) == PageState::kFree) {
      ++run;
      if (run == n) {
        *first = first_data_page_ + static_cast<PageId>(i + 1 - n);
        return Status::OK();
      }
    } else {
      run = 0;
    }
  }
  return ExtendLocked(n, first);
}

Status SpaceManager::Allocate(TxnContext* ctx, PageId* out) {
  std::vector<PageId> pages;
  OIR_RETURN_IF_ERROR(AllocateChunk(ctx, 1, &pages));
  *out = pages[0];
  return Status::OK();
}

Status SpaceManager::AllocateChunk(TxnContext* ctx, uint32_t n,
                                   std::vector<PageId>* out) {
  OIR_CHECK(n >= 1);
  PageId first;
  {
    MutexLock l(mu_);
    OIR_RETURN_IF_ERROR(ReserveRunLocked(n, &first));
    for (uint32_t i = 0; i < n; ++i) {
      SetLocked(first + i - first_data_page_, PageState::kAllocated);
    }
  }
  OIR_CRASH_POINT("space.alloc.state");
  out->clear();
  out->reserve(n);
  LogRecord rec;
  rec.type = LogType::kAlloc;
  for (uint32_t i = 0; i < n; ++i) {
    rec.pages.push_back(first + i);
    out->push_back(first + i);
  }
  log_->Append(&rec, ctx);
  OIR_CRASH_POINT("space.alloc.logged");
  return Status::OK();
}

Status SpaceManager::Deallocate(TxnContext* ctx, PageId page) {
  {
    MutexLock l(mu_);
    Transition(page, PageState::kAllocated, PageState::kDeallocated);
  }
  OIR_CRASH_POINT("space.dealloc.state");
  LogRecord rec;
  rec.type = LogType::kDealloc;
  rec.pages.push_back(page);
  log_->Append(&rec, ctx);
  OIR_CRASH_POINT("space.dealloc.logged");
  return Status::OK();
}

Status SpaceManager::DeallocateBatch(TxnContext* ctx,
                                     const std::vector<PageId>& pages) {
  {
    MutexLock l(mu_);
    for (PageId page : pages) {
      Transition(page, PageState::kAllocated, PageState::kDeallocated);
    }
  }
  OIR_CRASH_POINT("space.dealloc.state");
  // One record per 256-page allocation unit (ASE-style allocation pages).
  constexpr PageId kUnit = 256;
  std::map<PageId, std::vector<PageId>> by_unit;
  for (PageId page : pages) by_unit[page / kUnit].push_back(page);
  for (auto& [unit, list] : by_unit) {
    (void)unit;
    LogRecord rec;
    rec.type = LogType::kDealloc;
    rec.pages = list;
    log_->Append(&rec, ctx);
  }
  OIR_CRASH_POINT("space.dealloc.logged");
  return Status::OK();
}

void SpaceManager::Free(PageId page) {
  OIR_CRASH_POINT("space.free");
  MutexLock l(mu_);
  Transition(page, PageState::kDeallocated, PageState::kFree);
}

uint64_t SpaceManager::CountInState(PageState st) const {
  MutexLock l(mu_);
  uint64_t n = 0;
  for (size_t i = 0; i < SizeLocked(); ++i) {
    if (StateLocked(i) == st) ++n;
  }
  return n;
}

std::vector<PageId> SpaceManager::PagesInState(PageState st) const {
  MutexLock l(mu_);
  std::vector<PageId> out;
  for (size_t i = 0; i < SizeLocked(); ++i) {
    if (StateLocked(i) == st) out.push_back(first_data_page_ + i);
  }
  return out;
}

PageId SpaceManager::end_page() const {
  MutexLock l(mu_);
  return next_unused_;
}

void SpaceManager::UndoAlloc(PageId page) {
  MutexLock l(mu_);
  Transition(page, PageState::kAllocated, PageState::kFree);
}

void SpaceManager::UndoDealloc(PageId page) {
  MutexLock l(mu_);
  Transition(page, PageState::kDeallocated, PageState::kAllocated);
}

void SpaceManager::SetStateForRecovery(PageId page, PageState s) {
  MutexLock l(mu_);
  OIR_CHECK(page >= first_data_page_);
  if (page >= next_unused_) next_unused_ = page + 1;
  SetLocked(page - first_data_page_, s);
}

std::vector<PageId> SpaceManager::FreeAllDeallocated() {
  MutexLock l(mu_);
  std::vector<PageId> freed;
  for (size_t i = 0; i < SizeLocked(); ++i) {
    if (StateLocked(i) == PageState::kDeallocated) {
      SetLocked(i, PageState::kFree);
      freed.push_back(first_data_page_ + i);
    }
  }
  return freed;
}

void SpaceManager::ResetForRecovery() {
  MutexLock l(mu_);
  // Chunks stay (a lock-free reader may be in one); their bytes go free.
  for (size_t i = 0; i < SizeLocked(); ++i) SetLocked(i, PageState::kFree);
  next_unused_ = first_data_page_;
}

}  // namespace oir
