// Copyright 2026 The PolarCXLMem Reproduction Authors.
// A CXL Type-3 memory device (expander): owns real bytes. Devices live in
// the memory box with its own power supply unit, so their contents survive
// host crashes — the property PolarRecv builds on.
//
// Backing is one flat, lazily faulted allocation of the device's capacity:
// calloc of a large block hands back fresh zero pages, and the kernel only
// gives a page host memory on its first write (reads of an untouched page
// see the shared zero page). A host therefore pays only for the bytes
// tenants actually wrote, not for the device's whole capacity, and reads
// stay a plain `base + offset`.
//
// Snapshots are copy-before-write and in place, tracked per kPageSize
// chunk. CaptureSnapshot() arms the device; the first write-intent access
// to a chunk afterwards saves the chunk's captured bytes (or the fact that
// it was never written) into a per-chunk save slot, and RestoreSnapshot()
// copies just those saved chunks back. The backing never moves, so every
// pointer handed out stays valid across capture and restore. Save slots
// are preallocated per chunk, so shards of an epoch-parallel world that
// write disjoint chunks need no locking.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace polarcxl::cxl {

/// One memory expander module behind the switch (e.g., a DDR5 DIMM group
/// fronted by a CXL memory controller).
class CxlMemoryDevice {
 public:
  /// Snapshot granule: one chunk is one page, so page-aligned tenant
  /// regions own whole chunks.
  static constexpr uint64_t kChunkBytes = kPageSize;

  CxlMemoryDevice(uint32_t device_id, uint64_t capacity_bytes);
  ~CxlMemoryDevice();
  POLAR_DISALLOW_COPY(CxlMemoryDevice);

  uint32_t device_id() const { return device_id_; }
  uint64_t capacity() const { return capacity_; }

  /// Read intent: the device bytes. Never allocates or saves anything.
  const uint8_t* data() const { return base_; }

  /// Write intent: the bytes at `offset`. The first write to its chunk is
  /// recorded and, while a snapshot is armed, saves the chunk's captured
  /// bytes first. Covers that one chunk only: a write past the chunk's end
  /// needs its own WritePtr (or Write, which handles any range).
  uint8_t* WritePtr(MemOffset offset) {
    const uint64_t idx = offset / kChunkBytes;
    if (chunk_[idx] != Chunk::kReady) PrepareWrite(idx);
    return base_ + offset;
  }

  void Read(MemOffset offset, void* dst, uint64_t len) const {
    POLAR_CHECK(offset + len <= capacity_);
    std::memcpy(dst, base_ + offset, len);
  }
  void Write(MemOffset offset, const void* src, uint64_t len) {
    POLAR_CHECK(offset + len <= capacity_);
    if (len == 0) return;
    for (uint64_t idx = offset / kChunkBytes;
         idx <= (offset + len - 1) / kChunkBytes; idx++) {
      if (chunk_[idx] != Chunk::kReady) PrepareWrite(idx);
    }
    std::memcpy(base_ + offset, src, len);
  }

  /// Arms copy-before-write against the current contents. A snapshot that
  /// was already armed is dropped with its saved chunks.
  void CaptureSnapshot();
  /// Copies every chunk written since the capture back to its captured
  /// bytes (zeros for chunks never written then), in place. The snapshot
  /// stays armed, so the device can be forked again.
  void RestoreSnapshot();

  /// Bytes of chunks ever written (what the device costs the host).
  uint64_t allocated_bytes() const;
  /// Bytes of captured chunk contents the armed snapshot holds.
  uint64_t saved_bytes() const;
  /// Device offsets of the chunks the armed snapshot holds bytes for.
  std::vector<MemOffset> SavedChunkOffsets() const;

  /// Simulates replacing the device: every chunk is dropped, so the whole
  /// device reads as zeros again, and any armed snapshot is discarded (a
  /// new device has nothing to restore). Host crashes never call this;
  /// only explicit device failure tests do.
  void ClearForTest();

 private:
  enum class Chunk : uint8_t {
    kUnwritten,  // never written: reads zero, costs the host nothing
    kCaptured,   // written, and its bytes are the armed snapshot's image
    kReady,      // written; a write needs no bookkeeping
  };
  enum class Save : uint8_t { kNone, kBytes, kWasUnwritten };

  void PrepareWrite(uint64_t idx);
  void DropSnapshot();

  uint32_t device_id_;
  uint64_t capacity_;
  uint8_t* base_;  // calloc'd, lazily faulted
  std::vector<Chunk> chunk_;
  /// Per-chunk save slots of the armed snapshot (empty when disarmed).
  std::vector<Save> save_kind_;
  std::vector<std::unique_ptr<uint8_t[]>> saved_;
};

}  // namespace polarcxl::cxl
