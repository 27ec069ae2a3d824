#ifndef OIR_SPACE_SPACE_MANAGER_H_
#define OIR_SPACE_SPACE_MANAGER_H_

// Page manager implementing the three-state page lifecycle of
// Section 4.1.3:
//
//     free --Allocate--> allocated --Deallocate--> deallocated --Free--> free
//
// Allocate and Deallocate are logged (and undone on rollback); the
// deallocated→free transition is NOT logged and cannot be undone — after a
// crash, recovery frees any page still in the deallocated state.
//
// For clustering (Section 6.1), AllocateChunk hands out physically
// contiguous runs of pages: the rebuild allocates new leaf pages from such
// chunks so that key order matches disk order.
//
// The allocation map is kept in memory and reconstructed from the log
// during restart recovery (a substitution for ASE's persistent allocation
// pages; see DESIGN.md). It holds one atomic state byte per page, in chunks
// allocated on first use behind a fixed directory. GetState, which the
// cursor calls on every Next, reads it without a lock; every writer holds
// the manager's mutex.

#include <atomic>
#include <cstddef>
#include <map>
#include <vector>

#include "storage/buffer_manager.h"
#include "sync/mutex.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace oir {

enum class PageState : uint8_t {
  kFree = 0,
  kAllocated = 1,
  kDeallocated = 2,
};

class SpaceManager {
 public:
  // Pages [0, first_data_page) are reserved (invalid page 0 and metadata)
  // and are considered permanently allocated.
  SpaceManager(Disk* disk, LogManager* log, PageId first_data_page);
  ~SpaceManager();

  SpaceManager(const SpaceManager&) = delete;
  SpaceManager& operator=(const SpaceManager&) = delete;

  // Allocates one page (logged; undo returns it to free).
  Status Allocate(TxnContext* ctx, PageId* out);

  // Allocates `n` physically contiguous pages (each allocation is logged
  // individually so undo/redo stays uniform).
  Status AllocateChunk(TxnContext* ctx, uint32_t n, std::vector<PageId>* out);

  // allocated -> deallocated (logged). The page is not yet reusable.
  Status Deallocate(TxnContext* ctx, PageId page);

  // Deallocates several pages with one log record per 256-page allocation
  // unit touched — the way ASE's allocation-page updates batch, and what
  // keeps the rebuild's dealloc logging amortized at large ntasize.
  Status DeallocateBatch(TxnContext* ctx, const std::vector<PageId>& pages);

  // deallocated -> free (NOT logged, irreversible). The caller must ensure
  // the flush-before-free ordering of Section 3.
  void Free(PageId page);

  // Lock-free. A page past the high-water mark is free.
  PageState GetState(PageId page) const;

  // Number of pages in each state (tests, benchmarks).
  uint64_t CountInState(PageState s) const;
  std::vector<PageId> PagesInState(PageState s) const;

  // High-water mark: one past the largest page id ever handed out.
  PageId end_page() const;

  // --- rollback hooks (no logging; used by undo of alloc/dealloc) ---
  // allocated -> free (undo of Allocate).
  void UndoAlloc(PageId page);
  // deallocated -> allocated (undo of Deallocate).
  void UndoDealloc(PageId page);

  // --- recovery hooks (no logging) ---
  void SetStateForRecovery(PageId page, PageState s);
  // Frees all pages still in deallocated state (end of restart recovery,
  // Section 4.1.3).
  std::vector<PageId> FreeAllDeallocated();
  // Reset to the post-creation state before log replay.
  void ResetForRecovery();

 private:
  // Finds a run of n contiguous free pages below the high-water mark, or
  // extends the device.
  Status ReserveRunLocked(uint32_t n, PageId* first) OIR_REQUIRES(mu_);
  Status ExtendLocked(uint32_t n, PageId* first) OIR_REQUIRES(mu_);

  // The state byte of map index `idx` (page - first_data_page_),
  // allocating its chunk on first use.
  std::atomic<PageState>& SlotLocked(size_t idx) OIR_REQUIRES(mu_);
  PageState StateLocked(size_t idx) const OIR_REQUIRES(mu_) {
    return GetState(first_data_page_ + static_cast<PageId>(idx));
  }
  void SetLocked(size_t idx, PageState s) OIR_REQUIRES(mu_) {
    SlotLocked(idx).store(s, std::memory_order_release);
  }
  // Checks that `page` is mapped and in state `from`, then sets `to`.
  void Transition(PageId page, PageState from, PageState to)
      OIR_REQUIRES(mu_);
  // Number of map entries: pages in [first_data_page_, next_unused_).
  size_t SizeLocked() const OIR_REQUIRES(mu_) {
    return next_unused_ - first_data_page_;
  }

  static constexpr unsigned kChunkBits = 16;
  static constexpr size_t kChunkPages = size_t{1} << kChunkBits;
  static constexpr size_t kDirSize = size_t{1} << (32 - kChunkBits);

  Disk* const disk_;
  LogManager* const log_;
  const PageId first_data_page_;

  mutable Mutex mu_;
  // Chunk directory: slot c covers map indices [c, c+1) * kChunkPages.
  // Written (a null slot filled) under mu_, read lock-free; chunks live as
  // long as the manager, so a reader never sees one freed. Every byte at
  // or past SizeLocked() is kFree.
  std::atomic<std::atomic<PageState>*> dir_[kDirSize] = {};
  // Pages at and beyond next_unused_ are free (device may need extension).
  PageId next_unused_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir

#endif  // OIR_SPACE_SPACE_MANAGER_H_
