#include "gpusim/runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "sim/event_loop.h"

namespace mccs::gpu {
namespace {

struct GpuFixture : ::testing::Test {
  sim::EventLoop loop;
  GpuRuntime runtime{loop, 2};
};

TEST_F(GpuFixture, AllocateGivesZeroedDistinctMemory) {
  Gpu& dev = runtime.gpu(GpuId{0});
  const DevicePtr a = dev.allocate(64);
  const DevicePtr b = dev.allocate(64);
  EXPECT_NE(a.mem, b.mem);
  for (std::byte x : dev.bytes(a, 64)) EXPECT_EQ(x, std::byte{0});
}

TEST_F(GpuFixture, BytesAreBoundsChecked) {
  Gpu& dev = runtime.gpu(GpuId{0});
  const DevicePtr a = dev.allocate(64);
  EXPECT_NO_THROW(dev.bytes(a.at_offset(32), 32));
  EXPECT_THROW(dev.bytes(a.at_offset(32), 33), ContractViolation);
}

TEST_F(GpuFixture, IpcHandleSharesUnderlyingBytes) {
  Gpu& dev = runtime.gpu(GpuId{0});
  const DevicePtr a = dev.allocate(16);
  const MemHandle h = dev.export_handle(a.mem);
  const DevicePtr opened = dev.open_handle(h);
  dev.bytes(a, 16)[3] = std::byte{42};
  EXPECT_EQ(dev.bytes(opened, 16)[3], std::byte{42});
}

TEST_F(GpuFixture, RefcountKeepsMemoryAliveUntilLastRelease) {
  Gpu& dev = runtime.gpu(GpuId{0});
  const DevicePtr a = dev.allocate(16);
  const MemHandle h = dev.export_handle(a.mem);
  dev.open_handle(h);
  dev.release(a.mem);
  EXPECT_TRUE(dev.mem_valid(a.mem));  // opened handle still holds it
  dev.release(a.mem);
  EXPECT_FALSE(dev.mem_valid(a.mem));
}

TEST_F(GpuFixture, TypedViewReadsAndWrites) {
  const DevicePtr a = runtime.gpu(GpuId{0}).allocate(4 * sizeof(float));
  auto f = runtime.typed<float>(a, 4);
  f[0] = 1.5f;
  f[3] = -2.0f;
  auto g = runtime.typed<float>(a, 4);
  EXPECT_EQ(g[0], 1.5f);
  EXPECT_EQ(g[3], -2.0f);
}

TEST_F(GpuFixture, ComputeKernelsRunInOrderWithDurations) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  std::vector<double> completion_times;
  s.enqueue_compute(1.0, [&] { completion_times.push_back(loop.now()); });
  s.enqueue_compute(0.5, [&] { completion_times.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(completion_times.size(), 2u);
  EXPECT_DOUBLE_EQ(completion_times[0], 1.0);
  EXPECT_DOUBLE_EQ(completion_times[1], 1.5);
}

TEST_F(GpuFixture, IndependentStreamsRunConcurrently) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s1 = dev.create_stream();
  Stream& s2 = dev.create_stream();
  double t1 = -1, t2 = -1;
  s1.enqueue_compute(1.0, [&] { t1 = loop.now(); });
  s2.enqueue_compute(1.0, [&] { t2 = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 1.0);  // not serialized
}

TEST_F(GpuFixture, EventSynchronizesAcrossStreams) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& producer = dev.create_stream();
  Stream& consumer = dev.create_stream();
  auto ev = dev.create_event();
  double consumer_done = -1;
  producer.enqueue_compute(2.0);
  producer.record_event(ev);
  consumer.wait_event(ev);
  consumer.enqueue_compute(0.5, [&] { consumer_done = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(consumer_done, 2.5);
}

TEST_F(GpuFixture, EventSharableAcrossDevicesViaHandle) {
  Gpu& dev0 = runtime.gpu(GpuId{0});
  Gpu& dev1 = runtime.gpu(GpuId{1});
  // The shared event is the IPC handle: another device waits on it directly.
  auto ev = dev0.create_event();
  Stream& s0 = dev0.create_stream();
  Stream& s1 = dev1.create_stream();
  double done = -1;
  s0.enqueue_compute(1.0);
  s0.record_event(ev);
  s1.wait_event(ev);
  s1.enqueue_callback([&] { done = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(done, 1.0);
}

TEST_F(GpuFixture, WaitOnAlreadySignalledEventPassesImmediately) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  auto ev = dev.create_event();
  s.record_event(ev);
  loop.run();
  ASSERT_TRUE(ev->signalled());
  Stream& s2 = dev.create_stream();
  double done = -1;
  s2.wait_event(ev);
  s2.enqueue_callback([&] { done = loop.now(); });
  loop.run();
  EXPECT_GE(done, 0.0);
}

TEST_F(GpuFixture, MemcpyDurationFollowsBandwidth) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  double done = -1;
  s.enqueue_memcpy(1000, 1000.0, [&] { done = loop.now(); });  // 1 s
  loop.run();
  EXPECT_DOUBLE_EQ(done, 1.0);
  EXPECT_DOUBLE_EQ(s.memcpy_busy_time(), 1.0);
}

TEST_F(GpuFixture, ExternalOpBlocksStreamUntilCompleted) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  double started = -1, after = -1;
  const auto token = s.enqueue_external([&] { started = loop.now(); });
  s.enqueue_callback([&] { after = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(started, 0.0);
  EXPECT_DOUBLE_EQ(after, -1.0);  // still blocked
  loop.schedule_after(3.0, [&] { s.complete_external(token); });
  loop.run();
  EXPECT_DOUBLE_EQ(after, 3.0);
}

TEST_F(GpuFixture, ExternalOpCompletedBeforeReachedDoesNotBlock) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  double after = -1;
  s.enqueue_compute(1.0);
  const auto token = s.enqueue_external();
  s.enqueue_callback([&] { after = loop.now(); });
  s.complete_external(token);  // completes while "pre" is still running
  loop.run();
  EXPECT_DOUBLE_EQ(after, 1.0);
}

TEST_F(GpuFixture, ExternalOpCompletedSynchronouslyInOnStart) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  double after = -1;
  auto token = std::make_shared<ExternalOpToken>();
  s.enqueue_compute(0.5);  // ensures *token is assigned before on_start
  *token = s.enqueue_external([&s, token] { s.complete_external(*token); });
  s.enqueue_callback([&] { after = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(after, 0.5);
}

TEST_F(GpuFixture, ComputeBusyTimeAccumulates) {
  Gpu& dev = runtime.gpu(GpuId{0});
  Stream& s = dev.create_stream();
  s.enqueue_compute(1.0);
  s.enqueue_compute(2.0);
  loop.run();
  EXPECT_DOUBLE_EQ(s.compute_busy_time(), 3.0);
}

TEST_F(GpuFixture, DestroyStreamReleasesIdleStreamAtOnceBusyOneAfterDrain) {
  Gpu& dev = runtime.gpu(GpuId{0});
  const StreamId idle = dev.create_stream().id();
  Stream& busy = dev.create_stream();
  EXPECT_EQ(dev.stream_count(), 2u);
  dev.destroy_stream(idle);
  EXPECT_EQ(dev.stream_count(), 1u);

  // A trailing op still queued: the stream outlives the call and goes once
  // the op has completed.
  double done = -1;
  busy.enqueue_compute(2.0, [&] { done = loop.now(); });
  dev.destroy_stream(busy.id());
  EXPECT_EQ(dev.stream_count(), 1u);
  loop.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
  EXPECT_EQ(dev.stream_count(), 0u);
}

}  // namespace
}  // namespace mccs::gpu

namespace mccs::gpu {
namespace {

class StreamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamFuzz, RandomOpMixesAlwaysDrainInOrder) {
  // Random mixes of compute, memcpy, callbacks, records, waits and external
  // ops across several streams must (a) run every per-stream callback in
  // enqueue order and (b) leave every stream idle once all external ops are
  // completed.
  std::mt19937_64 rng(GetParam());
  sim::EventLoop loop;
  GpuRuntime runtime(loop, 1);
  Gpu& dev = runtime.gpu(GpuId{0});

  constexpr int kStreams = 3;
  std::vector<Stream*> streams;
  std::vector<std::vector<int>> order(kStreams);
  std::vector<int> next_tag(kStreams, 0);
  for (int s = 0; s < kStreams; ++s) streams.push_back(&dev.create_stream());

  std::vector<std::shared_ptr<GpuEvent>> events;
  std::vector<std::pair<Stream*, ExternalOpToken>> externals;

  for (int op = 0; op < 120; ++op) {
    const int s = static_cast<int>(rng() % kStreams);
    Stream& stream = *streams[static_cast<std::size_t>(s)];
    const int tag = next_tag[static_cast<std::size_t>(s)]++;
    auto record_order = [&order, s, tag] { order[static_cast<std::size_t>(s)].push_back(tag); };
    switch (rng() % 5) {
      case 0:
        stream.enqueue_compute(1e-6 * static_cast<double>(rng() % 50),
                               record_order);
        break;
      case 1:
        stream.enqueue_memcpy(1 + rng() % 4096, 1e9, record_order);
        break;
      case 2:
        stream.enqueue_callback(record_order);
        break;
      case 3: {
        // Record on this stream; a random other stream waits for it, which
        // can only delay, never deadlock (records precede their waits).
        auto ev = dev.create_event();
        stream.record_event(ev);
        stream.enqueue_callback(record_order);
        Stream& other = *streams[rng() % kStreams];
        other.wait_event(ev);
        events.push_back(ev);
        break;
      }
      case 4: {
        auto token = stream.enqueue_external();
        stream.enqueue_callback(record_order);
        externals.emplace_back(&stream, token);
        break;
      }
    }
  }
  // Complete external ops at staggered times.
  double t = 1e-5;
  for (auto& [stream, token] : externals) {
    loop.schedule_at(t, [stream = stream, token = token] {
      stream->complete_external(token);
    });
    t += 7e-6;
  }
  loop.run();

  for (int s = 0; s < kStreams; ++s) {
    EXPECT_TRUE(streams[static_cast<std::size_t>(s)]->idle()) << "stream " << s;
    // Callbacks fired in enqueue order.
    for (std::size_t i = 1; i < order[static_cast<std::size_t>(s)].size(); ++i) {
      EXPECT_LT(order[static_cast<std::size_t>(s)][i - 1],
                order[static_cast<std::size_t>(s)][i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Values(3, 17, 99, 424242));

}  // namespace
}  // namespace mccs::gpu
