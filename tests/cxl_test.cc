// Tests for the CXL fabric: devices (sparse chunk backing and
// copy-before-write snapshots), switch, accessor cost charging,
// crash-survivability, and the multi-tenant memory manager.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "fabric/fabric_topology.h"
#include "sim/cpu_cache.h"

namespace polarcxl::cxl {
namespace {

using sim::CpuCacheSim;
using sim::ExecContext;

class CxlFabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fabric_.AddDevice(4 << 20).ok());
    ASSERT_TRUE(fabric_.AddDevice(4 << 20).ok());
    auto host = fabric_.AttachHost(/*node=*/0);
    ASSERT_TRUE(host.ok());
    acc_ = *host;
  }

  CxlFabric fabric_;
  CxlAccessor* acc_ = nullptr;
};

TEST_F(CxlFabricTest, CapacityAggregatesDevices) {
  EXPECT_EQ(fabric_.capacity(), 8u << 20);
  EXPECT_EQ(fabric_.num_devices(), 2u);
}

TEST_F(CxlFabricTest, LoadStoreRoundTrip) {
  ExecContext ctx;
  const char msg[] = "polarcxlmem";
  acc_->Store(ctx, 1000, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  acc_->Load(ctx, 1000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST_F(CxlFabricTest, UncachedLoadPaysSwitchLatency) {
  ExecContext ctx;  // no CPU cache: always misses
  uint64_t v = 0;
  acc_->Load(ctx, 64, &v, sizeof(v));
  EXPECT_NEAR(static_cast<double>(ctx.now),
              static_cast<double>(fabric_.latency().line.cxl_switch_local), 5);
}

TEST_F(CxlFabricTest, RemoteNumaHostPaysMore) {
  auto remote = fabric_.AttachHost(/*node=*/1, /*remote_numa=*/true);
  ASSERT_TRUE(remote.ok());
  ExecContext ctx;
  uint64_t v = 0;
  (*remote)->Load(ctx, 64, &v, sizeof(v));
  EXPECT_NEAR(static_cast<double>(ctx.now),
              static_cast<double>(fabric_.latency().line.cxl_switch_remote), 5);
}

TEST_F(CxlFabricTest, CachedLoadIsCheap) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint64_t v = 0;
  acc_->Load(ctx, 64, &v, sizeof(v));
  const Nanos first = ctx.now;
  acc_->Load(ctx, 64, &v, sizeof(v));
  EXPECT_LT(ctx.now - first, 10);
}

TEST_F(CxlFabricTest, CrossDeviceCopyIsSafe) {
  ExecContext ctx;
  // Write a run straddling the 4 MiB device boundary.
  std::vector<uint8_t> in(8192);
  for (size_t i = 0; i < in.size(); i++) in[i] = static_cast<uint8_t>(i);
  const MemOffset off = (4 << 20) - 4096;
  acc_->Store(ctx, off, in.data(), static_cast<uint32_t>(in.size()));
  std::vector<uint8_t> out(in.size());
  acc_->Load(ctx, off, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(in, out);
}

TEST_F(CxlFabricTest, ContentsSurviveHostSideReset) {
  ExecContext ctx;
  const uint32_t sentinel = 0xDEADBEEF;
  acc_->StorePod(ctx, 128, sentinel);
  // "Crash": the host's cache and all DRAM state go away; the fabric stays.
  CpuCacheSim cache(1 << 20);
  cache.InvalidateAll();
  auto host2 = fabric_.AttachHost(/*node=*/7);
  ASSERT_TRUE(host2.ok());
  ExecContext ctx2;
  EXPECT_EQ((*host2)->LoadPod<uint32_t>(ctx2, 128), sentinel);
}

TEST_F(CxlFabricTest, FlushWritesDirtyLinesOnly) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint64_t v = 42;
  acc_->Store(ctx, 0, &v, sizeof(v));        // 1 dirty line
  acc_->Load(ctx, 4096, &v, sizeof(v));      // 1 clean line
  EXPECT_EQ(acc_->Flush(ctx, 0, kPageSize), 1u);
}

TEST_F(CxlFabricTest, InvalidateForcesRefetchOfRemoteUpdate) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint32_t v = 1;
  acc_->Store(ctx, 256, &v, sizeof(v));
  acc_->Flush(ctx, 256, 64);
  acc_->Load(ctx, 256, &v, sizeof(v));  // now cached clean

  // Another host updates the line in device memory.
  auto other = fabric_.AttachHost(8);
  ExecContext octx;
  uint32_t nv = 2;
  (*other)->Store(octx, 256, &nv, sizeof(nv));
  (*other)->Flush(octx, 256, 64);

  // Without invalidation this host's *simulated* cache would be stale; the
  // protocol invalidates and the next load fetches the new value.
  acc_->InvalidateCache(ctx, 256, 64);
  const Nanos before = ctx.now;
  acc_->Load(ctx, 256, &v, sizeof(v));
  EXPECT_EQ(v, 2u);
  EXPECT_GE(ctx.now - before, fabric_.latency().line.cxl_switch_local);
}

TEST_F(CxlFabricTest, SwitchPortExhaustion) {
  CxlSwitch::Options so;
  so.total_lanes = 32;  // two x16 ports only
  CxlFabric::Options fo;
  fo.switch_options = so;
  CxlFabric small(fo);
  ASSERT_TRUE(small.AddDevice(1 << 20).ok());
  ASSERT_TRUE(small.AttachHost(0).ok());
  EXPECT_FALSE(small.AttachHost(1).ok());
}

TEST(CxlSwitchTest, PortChannelsAreIndependent) {
  CxlSwitch sw("sw");
  auto p0 = sw.BindPort(CxlSwitch::PortKind::kHost);
  auto p1 = sw.BindPort(CxlSwitch::PortKind::kHost);
  ASSERT_TRUE(p0.ok() && p1.ok());
  sw.port_channel(*p0)->Transfer(0, 1 << 20);
  EXPECT_EQ(sw.port_channel(*p1)->total_bytes(), 0u);
}

// ---------- CxlMemoryManager ----------

TEST(CxlMemoryManagerTest, AllocateChargesRpcAndAligns) {
  CxlMemoryManager mgr(1 << 24, /*rpc_round_trip=*/2600);
  ExecContext ctx;
  auto r = mgr.Allocate(ctx, 1, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx.now, 2600);
  EXPECT_EQ(mgr.allocated(), kPageSize);  // rounded up
}

TEST(CxlMemoryManagerTest, RegionsNeverOverlap) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, 3 * kPageSize);
  auto b = mgr.Allocate(ctx, 2, 5 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a + 3 * kPageSize <= *b || *b + 5 * kPageSize <= *a);
  EXPECT_TRUE(mgr.Owns(1, *a, 3 * kPageSize));
  EXPECT_TRUE(mgr.Owns(2, *b, 5 * kPageSize));
  EXPECT_FALSE(mgr.Owns(1, *b, kPageSize));
  EXPECT_FALSE(mgr.Owns(2, *a, kPageSize));
}

TEST(CxlMemoryManagerTest, FirstFitReusesReleasedGap) {
  CxlMemoryManager mgr(16 * kPageSize);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, 4 * kPageSize);
  auto b = mgr.Allocate(ctx, 2, 4 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(mgr.Release(ctx, 1, *a).ok());
  auto c = mgr.Allocate(ctx, 3, 2 * kPageSize);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // fills the gap
}

TEST(CxlMemoryManagerTest, ExhaustionReturnsOutOfMemory) {
  CxlMemoryManager mgr(4 * kPageSize);
  ExecContext ctx;
  ASSERT_TRUE(mgr.Allocate(ctx, 1, 4 * kPageSize).ok());
  auto r = mgr.Allocate(ctx, 2, kPageSize);
  EXPECT_TRUE(r.status().IsOutOfMemory());
}

TEST(CxlMemoryManagerTest, TenantCannotReleaseForeignRegion) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, kPageSize);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mgr.Release(ctx, 2, *a).IsInvalidArgument());
  EXPECT_TRUE(mgr.Release(ctx, 1, *a).ok());
}

TEST(CxlMemoryManagerTest, ReleaseAllFreesEverything) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  mgr.Allocate(ctx, 1, kPageSize);
  mgr.Allocate(ctx, 1, kPageSize);
  mgr.Allocate(ctx, 2, kPageSize);
  mgr.ReleaseAll(ctx, 1);
  EXPECT_EQ(mgr.allocated(), kPageSize);
  EXPECT_EQ(mgr.RegionsOf(1).size(), 0u);
  EXPECT_EQ(mgr.RegionsOf(2).size(), 1u);
}

TEST(CxlMemoryManagerTest, ZeroSizeRejected) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  EXPECT_TRUE(mgr.Allocate(ctx, 1, 0).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Sparse device backing + copy-before-write snapshots
// ---------------------------------------------------------------------------

constexpr uint64_t kChunk = CxlMemoryDevice::kChunkBytes;

std::vector<uint8_t> DeviceImage(const CxlMemoryDevice& dev) {
  std::vector<uint8_t> bytes(dev.capacity());
  dev.Read(0, bytes.data(), bytes.size());
  return bytes;
}

std::vector<uint8_t> Pattern(size_t n, uint32_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; i++) {
    v[i] = static_cast<uint8_t>((i + seed) * 2654435761u >> 13);
  }
  return v;
}

TEST(CxlDeviceTest, UnwrittenRangesReadZeroAndAllocateNothing) {
  CxlMemoryDevice dev(0, 64 * kChunk);
  std::vector<uint8_t> buf(3 * kChunk + 100, 0xAA);
  dev.Read(kChunk - 50, buf.data(), buf.size());
  EXPECT_EQ(buf, std::vector<uint8_t>(buf.size(), 0));
  EXPECT_EQ(dev.data()[63 * kChunk + 7], 0);
  EXPECT_EQ(dev.allocated_bytes(), 0u);

  // Through the fabric and an accessor: reads and read-intent pointers
  // allocate nothing either.
  CxlFabric fabric;
  ASSERT_TRUE(fabric.AddDevice(64 * kChunk).ok());
  CxlAccessor* acc = *fabric.AttachHost(0);
  ExecContext ctx;
  EXPECT_EQ(acc->LoadPod<uint64_t>(ctx, 5 * kChunk), 0u);
  EXPECT_EQ(acc->LoadUncachedPod<uint64_t>(ctx, 9 * kChunk + 64), 0u);
  EXPECT_EQ(*acc->RawRead(20 * kChunk), 0);
  EXPECT_EQ(fabric.DeviceAllocatedBytes(), 0u);

  // The first write allocates exactly the chunk it touches.
  acc->StorePod<uint64_t>(ctx, 5 * kChunk + 8, 42);
  EXPECT_EQ(fabric.DeviceAllocatedBytes(), kChunk);
  EXPECT_EQ(acc->LoadPod<uint64_t>(ctx, 5 * kChunk + 8), 42u);
  EXPECT_EQ(acc->RawRead(5 * kChunk), acc->Raw(5 * kChunk));
}

TEST(CxlDeviceTest, WriteAfterCaptureRestoresByteExact) {
  CxlMemoryDevice dev(0, 16 * kChunk);
  const std::vector<uint8_t> a = Pattern(5 * kChunk, 1);
  dev.Write(2 * kChunk, a.data(), a.size());  // chunks 2..6 allocated
  uint8_t* const stable = dev.WritePtr(3 * kChunk);
  const std::vector<uint8_t> captured = DeviceImage(dev);

  dev.CaptureSnapshot();
  EXPECT_EQ(dev.saved_bytes(), 0u);
  // Overwrite allocated chunks, partially and across chunk boundaries, and
  // write chunks never written before the capture (0, 7, 15).
  const std::vector<uint8_t> b = Pattern(2 * kChunk + 300, 2);
  dev.Write(3 * kChunk - 150, b.data(), b.size());
  dev.Write(0, b.data(), 10);
  dev.Write(7 * kChunk + 9, b.data(), 100);
  dev.Write(16 * kChunk - 4, b.data(), 4);
  EXPECT_NE(DeviceImage(dev), captured);
  // Chunks 2, 3, 4 and 5 held bytes at capture; 0, 7 and 15 did not.
  EXPECT_EQ(dev.saved_bytes(), 4 * kChunk);

  dev.RestoreSnapshot();
  EXPECT_EQ(DeviceImage(dev), captured);
  EXPECT_EQ(dev.WritePtr(3 * kChunk), stable);  // the backing never moves

  // The snapshot stays armed: a second fork restores just as exactly.
  dev.Write(kChunk * 6 + 1, b.data(), kChunk);
  dev.Write(12 * kChunk, b.data(), 64);
  dev.RestoreSnapshot();
  EXPECT_EQ(DeviceImage(dev), captured);
}

TEST(CxlDeviceTest, CaptureTwiceInARowKeepsTheLatest) {
  CxlMemoryDevice dev(0, 8 * kChunk);
  const std::vector<uint8_t> a = Pattern(kChunk, 3);
  dev.Write(kChunk, a.data(), a.size());
  dev.CaptureSnapshot();
  dev.CaptureSnapshot();  // back-to-back: nothing written in between
  dev.Write(kChunk + 10, a.data(), 20);
  EXPECT_EQ(dev.saved_bytes(), kChunk);
  dev.RestoreSnapshot();
  EXPECT_EQ(std::memcmp(dev.data() + kChunk, a.data(), kChunk), 0);

  // Writes between two captures belong to the second capture's image.
  const std::vector<uint8_t> b = Pattern(2 * kChunk, 4);
  dev.Write(kChunk, b.data(), b.size());
  dev.CaptureSnapshot();
  EXPECT_EQ(dev.saved_bytes(), 0u);  // the first capture's saves are gone
  const std::vector<uint8_t> second = DeviceImage(dev);
  const std::vector<uint8_t> c = Pattern(3 * kChunk / 2, 9);
  dev.Write(0, c.data(), c.size());
  dev.RestoreSnapshot();
  EXPECT_EQ(DeviceImage(dev), second);
}

TEST(CxlDeviceTest, ClearForTestDropsEveryChunk) {
  CxlMemoryDevice dev(0, 8 * kChunk);
  const std::vector<uint8_t> a = Pattern(3 * kChunk, 5);
  dev.Write(100, a.data(), a.size());
  dev.CaptureSnapshot();
  dev.Write(0, a.data(), 8);
  EXPECT_EQ(dev.allocated_bytes(), 4 * kChunk);
  dev.ClearForTest();
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.saved_bytes(), 0u);
  EXPECT_EQ(DeviceImage(dev), std::vector<uint8_t>(dev.capacity(), 0));
  dev.RestoreSnapshot();  // the snapshot went with the old device
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(CxlDeviceTest, CopiesCrossChunkAndStripeBoundaries) {
  // Two devices striped at 256 B, so runs end at stripe boundaries inside
  // every chunk and at chunk boundaries of each device.
  CxlFabric::Options o;
  o.topology = fabric::TopologySpec::Ring(1);
  o.interleave.mode = fabric::InterleaveMode::kRoundRobin;
  o.interleave.granule = 256;
  CxlFabric fab(std::move(o));
  ASSERT_TRUE(fab.AddDevice(8 * kChunk).ok());
  ASSERT_TRUE(fab.AddDevice(8 * kChunk).ok());
  EXPECT_EQ(fab.ContiguousAt(100), 156u);

  const std::vector<uint8_t> in = Pattern(5 * kChunk + 777, 6);
  const MemOffset off = 2 * kChunk - 333;
  fab.CopyIn(off, in.data(), in.size());
  std::vector<uint8_t> out(in.size());
  fab.CopyOut(off, out.data(), out.size());
  EXPECT_EQ(out, in);
  for (uint64_t i = 0; i < in.size(); i += 97) {
    EXPECT_EQ(*fab.TranslateRead(off + i), in[i]) << i;
  }
  // Bytes outside the written range still read zero.
  uint8_t edge[2] = {0xFF, 0xFF};
  fab.CopyOut(off - 1, edge, 1);
  fab.CopyOut(off + in.size(), edge + 1, 1);
  EXPECT_EQ(edge[0], 0);
  EXPECT_EQ(edge[1], 0);

  // One device: a copy spanning chunks records each chunk it writes.
  CxlFabric single;
  ASSERT_TRUE(single.AddDevice(8 * kChunk).ok());
  single.CopyIn(off, in.data(), in.size());
  std::fill(out.begin(), out.end(), 0);
  single.CopyOut(off, out.data(), out.size());
  EXPECT_EQ(out, in);
  EXPECT_EQ(single.DeviceAllocatedBytes(), 7 * kChunk);  // chunks 1..7

  // Device snapshots through the fabric: copies restore across boundaries.
  std::vector<uint8_t> captured(fab.capacity());
  fab.CopyOut(0, captured.data(), captured.size());
  fab.CaptureDevices();
  const std::vector<uint8_t> over = Pattern(3 * kChunk, 7);
  fab.CopyIn(kChunk / 2 + 3, over.data(), over.size());
  fab.RestoreDevices();
  std::vector<uint8_t> restored(fab.capacity());
  fab.CopyOut(0, restored.data(), restored.size());
  EXPECT_EQ(restored, captured);
}

}  // namespace
}  // namespace polarcxl::cxl
