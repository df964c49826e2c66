#include <gtest/gtest.h>

#include "mem/memory_controller.hpp"
#include "mem/storage_mode.hpp"
#include "mem/unified_memory.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ao::mem {
namespace {

// -------------------------------------------------------- storage modes ----

TEST(StorageMode, AccessibilityRules) {
  // Section 2.4: malloc memory is CPU-only; shared buffers are zero-copy for
  // both; private is GPU-only.
  EXPECT_TRUE(cpu_accessible(StorageMode::kCpuMalloc));
  EXPECT_FALSE(gpu_accessible(StorageMode::kCpuMalloc));
  EXPECT_TRUE(cpu_accessible(StorageMode::kShared));
  EXPECT_TRUE(gpu_accessible(StorageMode::kShared));
  EXPECT_FALSE(cpu_accessible(StorageMode::kPrivate));
  EXPECT_TRUE(gpu_accessible(StorageMode::kPrivate));
  EXPECT_TRUE(cpu_accessible(StorageMode::kManaged));
  EXPECT_TRUE(gpu_accessible(StorageMode::kManaged));
}

TEST(StorageMode, TransferRequirements) {
  EXPECT_TRUE(requires_explicit_transfer(StorageMode::kCpuMalloc));
  EXPECT_FALSE(requires_explicit_transfer(StorageMode::kShared));
  EXPECT_TRUE(requires_explicit_transfer(StorageMode::kManaged));
}

// ------------------------------------------------------- unified memory ----

class UnifiedMemoryTest : public ::testing::Test {
 protected:
  soc::Soc soc_{soc::ChipModel::kM1};  // 8 GB device
  UnifiedMemory pool_{soc_};
};

TEST_F(UnifiedMemoryTest, CapacityMatchesDevice) {
  EXPECT_EQ(pool_.capacity_bytes(), 8ull * util::kGiB);
  EXPECT_EQ(pool_.allocated_bytes(), 0u);
}

TEST_F(UnifiedMemoryTest, AllocationIsPageGranular) {
  auto r = pool_.allocate(100, StorageMode::kShared);
  EXPECT_EQ(r->length(), 100u);
  EXPECT_EQ(r->reserved(), UnifiedMemory::kPageSize);
  EXPECT_EQ(pool_.allocated_bytes(), UnifiedMemory::kPageSize);
  EXPECT_TRUE(util::AlignedBuffer::is_aligned(r->data(),
                                              UnifiedMemory::kPageSize));
}

TEST_F(UnifiedMemoryTest, RaiiReturnsBytes) {
  {
    auto r = pool_.allocate(1 << 20, StorageMode::kPrivate);
    EXPECT_EQ(pool_.live_allocations(), 1u);
    EXPECT_GT(pool_.allocated_bytes(), 0u);
  }
  EXPECT_EQ(pool_.live_allocations(), 0u);
  EXPECT_EQ(pool_.allocated_bytes(), 0u);
  EXPECT_GT(pool_.peak_allocated_bytes(), 0u);  // peak is sticky
}

TEST_F(UnifiedMemoryTest, CapacityEnforced) {
  // Two 5 GiB regions cannot coexist in an 8 GiB device.
  auto first = pool_.allocate(5ull * util::kGiB, StorageMode::kShared);
  EXPECT_THROW(pool_.allocate(5ull * util::kGiB, StorageMode::kShared),
               util::ResourceExhausted);
  // After releasing, it fits.
  first.reset();
  EXPECT_NO_THROW(pool_.allocate(5ull * util::kGiB, StorageMode::kShared));
}

TEST_F(UnifiedMemoryTest, ZeroLengthRejected) {
  EXPECT_THROW(pool_.allocate(0, StorageMode::kShared), util::InvalidArgument);
}

TEST_F(UnifiedMemoryTest, RegionIdsAreUnique) {
  auto a = pool_.allocate(100, StorageMode::kShared);
  auto b = pool_.allocate(100, StorageMode::kShared);
  EXPECT_NE(a->id(), b->id());
}

TEST_F(UnifiedMemoryTest, SpanViewIsWritable) {
  auto r = pool_.allocate(64 * sizeof(float), StorageMode::kShared);
  auto span = r->as_span<float>();
  span[0] = 42.0f;
  span[63] = -1.0f;
  EXPECT_EQ(r->as_span<float>()[0], 42.0f);
  EXPECT_EQ(r->as_span<float>()[63], -1.0f);
}

// ----------------------------------------------------- memory controller ---

TEST(MemoryController, IsolatedAgentsGetLinkCeilings) {
  soc::Soc soc(soc::ChipModel::kM4);
  MemoryController mc(soc);
  EXPECT_DOUBLE_EQ(mc.link_ceiling_gbs(soc::MemoryAgent::kCpu), 103.0);
  EXPECT_DOUBLE_EQ(mc.link_ceiling_gbs(soc::MemoryAgent::kGpu), 100.0);
  EXPECT_DOUBLE_EQ(mc.fabric_ceiling_gbs(), 120.0);
  EXPECT_DOUBLE_EQ(
      mc.arbitrated_bandwidth_gbs(soc::MemoryAgent::kCpu, {true, false, false}),
      103.0);
}

TEST(MemoryController, ContentionSharesFabric) {
  soc::Soc soc(soc::ChipModel::kM4);
  MemoryController mc(soc);
  const std::array<bool, 3> both = {true, true, false};
  const double cpu = mc.arbitrated_bandwidth_gbs(soc::MemoryAgent::kCpu, both);
  const double gpu = mc.arbitrated_bandwidth_gbs(soc::MemoryAgent::kGpu, both);
  // Combined demand 203 GB/s exceeds the 120 GB/s fabric: scaled down.
  EXPECT_LT(cpu, 103.0);
  EXPECT_LT(gpu, 100.0);
  EXPECT_NEAR(cpu + gpu, 120.0, 1e-9);
  // Proportional shares preserve the CPU's slight link advantage.
  EXPECT_GT(cpu, gpu);
}

TEST(MemoryController, NoContentionWhenFabricSuffices) {
  // On M1 (67 GB/s fabric), CPU alone (59) fits under the fabric ceiling.
  soc::Soc soc(soc::ChipModel::kM1);
  MemoryController mc(soc);
  EXPECT_DOUBLE_EQ(
      mc.arbitrated_bandwidth_gbs(soc::MemoryAgent::kCpu, {true, false, false}),
      59.0);
}

TEST(MemoryController, TransferTime) {
  soc::Soc soc(soc::ChipModel::kM2);
  MemoryController mc(soc);
  // 91 GB at 91 GB/s (GPU alone) = 1 simulated second.
  const double ns = mc.transfer_time_ns(soc::MemoryAgent::kGpu,
                                        91'000'000'000ull, {false, true, false});
  EXPECT_NEAR(ns, 1e9, 1e3);
}

TEST(MemoryController, InactiveAgentQueryThrows) {
  soc::Soc soc(soc::ChipModel::kM1);
  MemoryController mc(soc);
  EXPECT_THROW(
      mc.arbitrated_bandwidth_gbs(soc::MemoryAgent::kCpu, {false, true, false}),
      util::InvalidArgument);
}

}  // namespace
}  // namespace ao::mem
