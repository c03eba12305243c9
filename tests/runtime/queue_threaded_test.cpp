// Cross-thread exercise of the bounded MPMC ring and the policy wrapper --
// the configuration a threaded deployment (or a fleet shard) runs: one
// reader-session producer, one localization consumer.  All three
// backpressure policies are driven with a live consumer thread; kDropOldest
// is the interesting one, because its eviction is a producer-side pop that
// races the consumer's pop for the same oldest element.  Carries the tsan
// label so the ThreadSanitizer pass in tools/run_sanitized.sh checks
// exactly these acquire/release pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/queue.hpp"

namespace tagspin::runtime {
namespace {

TEST(BoundedRingThreaded, FifoAcrossThreadsWithoutLoss) {
  BoundedRing<uint64_t> queue(64);
  constexpr uint64_t kItems = 200000;

  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!queue.tryPush(i)) {
        std::this_thread::yield();
      }
    }
  });

  uint64_t expected = 0;
  uint64_t out = 0;
  while (expected < kItems) {
    if (queue.tryPop(out)) {
      // Single-producer contract: strict FIFO, no duplication, no loss.
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedRingThreaded, MultiProducerMultiConsumerConservesElements) {
  // The fleet shards put the ring into genuinely multi-threaded company;
  // check the MPMC contract directly: N producers, M consumers, every
  // element delivered exactly once.
  BoundedRing<uint64_t> queue(32);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 30000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t tagged = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!queue.tryPush(tagged)) std::this_thread::yield();
      }
    });
  }

  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t out = 0;
      while (received.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (queue.tryPop(out)) {
          checksum.fetch_add(out, std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (std::thread& t : consumers) t.join();

  const uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(checksum.load(), total * (total - 1) / 2);  // each value once
  EXPECT_TRUE(queue.empty());
}

TEST(IngestQueueThreaded, BlockPolicyWithInstrumentsUnderConcurrency) {
  obs::MetricsRegistry registry;
  IngestQueue<uint64_t> queue(32, BackpressurePolicy::kBlock);
  queue.setInstruments(QueueInstruments::resolve(&registry));
  constexpr uint64_t kItems = 50000;

  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!queue.offer(i)) {
        std::this_thread::yield();  // kBlock: refused when full, retry
      }
    }
  });

  uint64_t received = 0;
  uint64_t out = 0;
  uint64_t last = 0;
  while (received < kItems) {
    if (queue.poll(out)) {
      if (received > 0) ASSERT_GT(out, last);
      last = out;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counterValue("queue.accepted"), kItems);
  // offered = accepted + refusals; refusals only ever add to it.
  EXPECT_GE(snap.counterValue("queue.offered"), kItems);
  EXPECT_EQ(snap.counterValue("queue.offered") - kItems,
            snap.counterValue("queue.refused_full"));
  EXPECT_EQ(snap.counterValue("queue.dropped_oldest"), 0u);
  EXPECT_GT(snap.gaugeValue("queue.max_depth"), 0.0);
  EXPECT_LE(snap.gaugeValue("queue.max_depth"), 32.0);
}

TEST(IngestQueueThreaded, DropOldestPolicyWithConcurrentConsumer) {
  // The policy that used to be single-thread-only: producer-side eviction
  // pops race the consumer's pops.  Contract under concurrency:
  //  * every offer is accepted (drop_oldest never refuses);
  //  * the consumer sees a strictly increasing subsequence (drops skip
  //    forward, never reorder or duplicate);
  //  * accepted == delivered + evicted + left-in-ring (no element vanishes
  //    or double-counts).
  obs::MetricsRegistry registry;
  IngestQueue<uint64_t> queue(16, BackpressurePolicy::kDropOldest);
  queue.setInstruments(QueueInstruments::resolve(&registry));
  constexpr uint64_t kItems = 100000;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> delivered{0};
  std::thread consumer([&] {
    uint64_t out = 0;
    uint64_t last = 0;
    bool first = true;
    int spins = 0;
    while (!done.load(std::memory_order_acquire) || queue.size() > 0) {
      if (queue.poll(out)) {
        if (!first) ASSERT_GT(out, last);
        first = false;
        last = out;
        delivered.fetch_add(1, std::memory_order_relaxed);
        // Let the producer lap the ring regularly so evictions do happen.
        if (++spins % 64 == 0) std::this_thread::yield();
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(queue.offer(i));  // drop_oldest always admits
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  uint64_t out = 0;
  uint64_t leftover = 0;
  while (queue.poll(out)) ++leftover;

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counterValue("queue.offered"), kItems);
  EXPECT_EQ(snap.counterValue("queue.accepted"), kItems);
  EXPECT_EQ(snap.counterValue("queue.refused_full"), 0u);
  EXPECT_EQ(delivered.load() + leftover +
                snap.counterValue("queue.dropped_oldest"),
            kItems);
}

TEST(IngestQueueThreaded, DegradeSamplingPolicyWithConcurrentConsumer) {
  // A deliberately slow consumer keeps the ring pinned above the watermark,
  // so the sampling gate engages; everything that IS admitted must still be
  // delivered exactly once and in order.
  obs::MetricsRegistry registry;
  IngestQueue<uint64_t> queue(64, BackpressurePolicy::kDegradeSampling,
                              /*degradeKeepEvery=*/2, /*highWatermark=*/0.5);
  queue.setInstruments(QueueInstruments::resolve(&registry));
  constexpr uint64_t kItems = 50000;

  // Fill the ring to its watermark before the consumer starts, then offer
  // twice more: the gate admits the first and samples the second away, so
  // a sampled drop does not hinge on the consumer falling behind.
  uint64_t admitted = 0;
  uint64_t next = 0;
  while (queue.size() < queue.watermarkDepth()) {
    if (queue.offer(next++)) ++admitted;
  }
  for (int extra = 0; extra < 2; ++extra) {
    if (queue.offer(next++)) ++admitted;
  }
  ASSERT_GT(queue.stats().droppedSampled, 0u);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> delivered{0};
  std::thread consumer([&] {
    uint64_t out = 0;
    uint64_t last = 0;
    bool first = true;
    while (!done.load(std::memory_order_acquire) || queue.size() > 0) {
      if (queue.poll(out)) {
        if (!first) ASSERT_GT(out, last);  // in order, never duplicated
        first = false;
        last = out;
        delivered.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();  // slow consumer: keep depth high
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (; next < kItems; ++next) {
    if (queue.offer(next)) ++admitted;
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  uint64_t out = 0;
  uint64_t leftover = 0;
  while (queue.poll(out)) ++leftover;

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counterValue("queue.offered"), kItems);
  EXPECT_EQ(snap.counterValue("queue.accepted"), admitted);
  EXPECT_EQ(snap.counterValue("queue.accepted") +
                snap.counterValue("queue.dropped_sampled") +
                snap.counterValue("queue.refused_full"),
            kItems);
  EXPECT_GT(snap.counterValue("queue.dropped_sampled"), 0u);
  EXPECT_EQ(delivered.load() + leftover, admitted);
}

TEST(IngestQueueThreaded, DegradeCounterResetsBelowWatermarkUnderConcurrency) {
  // The degrade counter is producer-side state that RESETS whenever an
  // offer observes the depth below the watermark -- with a live consumer
  // the depth oscillates around it, so the reset edge fires constantly
  // while poll() mutates the ring from the other thread.  Contract:
  //  * the very next offer after any reset is admitted (counter phase 0);
  //  * the accounting never splits an offer (accepted + sampled + refused
  //    == offered) no matter how the reset races the consumer;
  //  * the watermark edge detector sees multiple excursions, not one.
  obs::MetricsRegistry registry;
  IngestQueue<uint64_t> queue(32, BackpressurePolicy::kDegradeSampling,
                              /*degradeKeepEvery=*/2, /*highWatermark=*/0.5);
  queue.setInstruments(QueueInstruments::resolve(&registry));
  constexpr uint64_t kItems = 60000;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> delivered{0};
  std::thread consumer([&] {
    uint64_t out = 0;
    uint64_t drained = 0;
    while (!done.load(std::memory_order_acquire) || queue.size() > 0) {
      // Bursty consumer: drain hard for a stretch (pulls the depth below
      // the watermark -> producer-side reset), then stall (depth climbs
      // back over -> sampling re-engages).
      const bool draining = (drained / 512) % 2 == 0;
      if (draining && queue.poll(out)) {
        ++drained;
        delivered.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++drained;
        std::this_thread::yield();
      }
    }
  });

  uint64_t admitted = 0;
  uint64_t admittedRightAfterReset = 0;
  uint64_t resets = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    if (i > 0 && i % 2000 == 0) {
      // Force an excursion boundary: wait for the consumer to pull the
      // depth below the watermark, so the climb that follows replays the
      // below->above edge instead of riding one endless excursion.  Only
      // this thread pushes, so the observation cannot be overtaken.
      while (queue.size() >= queue.watermarkDepth()) {
        std::this_thread::yield();
      }
    }
    const bool below = queue.size() < queue.watermarkDepth();
    const bool ok = queue.offer(i);
    if (ok) ++admitted;
    if (below) {
      // This offer observed the depth below the watermark at entry, so it
      // reset the counter to phase 0 and must have been admitted (the
      // ring cannot be full below the watermark).
      ++resets;
      if (ok) ++admittedRightAfterReset;
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  uint64_t out = 0;
  uint64_t leftover = 0;
  while (queue.poll(out)) ++leftover;

  EXPECT_GT(resets, 0u);
  EXPECT_EQ(admittedRightAfterReset, resets);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counterValue("queue.offered"), kItems);
  EXPECT_EQ(snap.counterValue("queue.accepted"), admitted);
  EXPECT_EQ(snap.counterValue("queue.accepted") +
                snap.counterValue("queue.dropped_sampled") +
                snap.counterValue("queue.refused_full"),
            kItems);
  EXPECT_EQ(delivered.load() + leftover, admitted);
  // The oscillation crossed the watermark repeatedly -- the edge detector
  // must have re-armed, not latched on the first excursion.
  EXPECT_GT(snap.counterValue("queue.watermark_crossings"), 1u);
}

}  // namespace
}  // namespace tagspin::runtime
