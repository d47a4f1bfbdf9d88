#include "cxl/cxl_device.h"

#include <algorithm>
#include <cstdlib>

namespace polarcxl::cxl {

CxlMemoryDevice::CxlMemoryDevice(uint32_t device_id, uint64_t capacity_bytes)
    : device_id_(device_id),
      capacity_(capacity_bytes),
      // calloc, not a zero-filled vector: a large calloc maps fresh zero
      // pages without touching them, so untouched bytes cost no RSS.
      base_(static_cast<uint8_t*>(std::calloc(capacity_bytes, 1))),
      chunk_((capacity_bytes + kChunkBytes - 1) / kChunkBytes,
             Chunk::kUnwritten) {
  POLAR_CHECK(base_ != nullptr || capacity_bytes == 0);
}

CxlMemoryDevice::~CxlMemoryDevice() { std::free(base_); }

void CxlMemoryDevice::PrepareWrite(uint64_t idx) {
  if (!save_kind_.empty() && save_kind_[idx] == Save::kNone) {
    if (chunk_[idx] == Chunk::kUnwritten) {
      save_kind_[idx] = Save::kWasUnwritten;
    } else {
      saved_[idx].reset(new uint8_t[kChunkBytes]);
      const uint64_t off = idx * kChunkBytes;
      std::memcpy(saved_[idx].get(), base_ + off,
                  std::min(kChunkBytes, capacity_ - off));
      save_kind_[idx] = Save::kBytes;
    }
  }
  chunk_[idx] = Chunk::kReady;
}

void CxlMemoryDevice::CaptureSnapshot() {
  DropSnapshot();
  save_kind_.assign(chunk_.size(), Save::kNone);
  saved_.resize(chunk_.size());
  // Every written chunk's next write goes through PrepareWrite, which
  // saves it.
  for (Chunk& c : chunk_) {
    if (c == Chunk::kReady) c = Chunk::kCaptured;
  }
}

void CxlMemoryDevice::RestoreSnapshot() {
  for (uint64_t idx = 0; idx < save_kind_.size(); idx++) {
    const uint64_t off = idx * kChunkBytes;
    const uint64_t len = std::min(kChunkBytes, capacity_ - off);
    switch (save_kind_[idx]) {
      case Save::kNone:
        break;
      case Save::kBytes:
        std::memcpy(base_ + off, saved_[idx].get(), len);
        break;
      case Save::kWasUnwritten:
        std::memset(base_ + off, 0, len);
        break;
    }
  }
}

void CxlMemoryDevice::DropSnapshot() {
  save_kind_.clear();
  saved_.clear();
}

uint64_t CxlMemoryDevice::allocated_bytes() const {
  const auto n = chunk_.size() - static_cast<size_t>(std::count(
                                     chunk_.begin(), chunk_.end(),
                                     Chunk::kUnwritten));
  return static_cast<uint64_t>(n) * kChunkBytes;
}

uint64_t CxlMemoryDevice::saved_bytes() const {
  const auto n = std::count(save_kind_.begin(), save_kind_.end(), Save::kBytes);
  return static_cast<uint64_t>(n) * kChunkBytes;
}

std::vector<MemOffset> CxlMemoryDevice::SavedChunkOffsets() const {
  std::vector<MemOffset> offsets;
  for (uint64_t idx = 0; idx < save_kind_.size(); idx++) {
    if (save_kind_[idx] == Save::kBytes) offsets.push_back(idx * kChunkBytes);
  }
  return offsets;
}

void CxlMemoryDevice::ClearForTest() {
  DropSnapshot();
  // Only written chunks can hold non-zero bytes.
  for (uint64_t idx = 0; idx < chunk_.size(); idx++) {
    if (chunk_[idx] == Chunk::kUnwritten) continue;
    const uint64_t off = idx * kChunkBytes;
    std::memset(base_ + off, 0, std::min(kChunkBytes, capacity_ - off));
    chunk_[idx] = Chunk::kUnwritten;
  }
}

}  // namespace polarcxl::cxl
