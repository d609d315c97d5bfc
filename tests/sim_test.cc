// Unit tests for the discrete-event simulator substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/cpu_resource.h"
#include "sim/event_queue.h"
#include "sim/fn.h"
#include "sim/scheduler.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace chiller::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtSameInstant) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
  q.Push(42, [] {});
  q.Push(7, [] {});
  EXPECT_EQ(q.NextTime(), 7u);
}

TEST(EventQueueTest, PoppedEventReleasesItsCapture) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.Push(2, [token] { ++*token; });
  q.Push(1, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  q.Pop();  // dropped unrun
  EXPECT_EQ(token.use_count(), 2);
  q.Pop().fn();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(SimulatorTest, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(100, [&] { times.push_back(sim.now()); });
  sim.Schedule(50, [&] {
    times.push_back(sim.now());
    sim.Schedule(25, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{50, 75, 100}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Schedule(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(10, [&] {
    sim.Schedule(0, [&] {
      ran = true;
      EXPECT_EQ(sim.now(), 10u);
    });
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, ClearDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Clear();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CapturesAreReleasedOnceRunOrCleared) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  sim.Schedule(1, [token] { ++*token; });
  sim.Schedule(5, [token] { ++*token; });
  sim.RunUntil(2);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 2);  // only the pending t=5 event holds it
  sim.Clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

TEST(SimulatorTest, EventCountTracked) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, DeterministicReplay) {
  auto run = []() {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule((i * 7) % 13, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// --- The event-queue tie-breaking contract --------------------------------
//
// Events are totally ordered by (time, domain, origin, seq): earlier time
// first; at one instant the control domain (0) precedes every data domain
// and lower data domains precede higher ones; events from one origin at
// one (time, domain) fire in the order they were scheduled. The untagged
// Push keeps the historical (time, schedule order) contract as the
// degenerate case (all tags zero, internal counter).

TEST(EventQueueTest, CanonicalKeyOrder) {
  EventQueue q;
  std::vector<int> order;
  auto tag = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };
  // Pushed shuffled; must pop time-major, then domain, origin, seq.
  q.Push(5, 2, 1, 7, tag(5));
  q.Push(5, 1, 3, 0, tag(3));
  q.Push(5, 0, 0, 9, tag(1));  // control domain first at the instant
  q.Push(5, 2, 1, 3, tag(4));
  q.Push(5, 1, 1, 5, tag(2));
  q.Push(4, 9, 9, 9, tag(0));  // earlier time beats every tag
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, CanonicalKeyOrderAtTheFieldLimits) {
  // The tie word packs domain, origin and seq into fixed-width fields; a
  // field at its maximum must not carry into its neighbour.
  constexpr uint32_t kTop = EventQueue::kMaxDomains - 1;
  constexpr uint64_t kLastSeq = EventQueue::kMaxSeq - 1;
  EventQueue q;
  std::vector<int> order;
  auto tag = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };
  q.Push(7, kTop, kTop, kLastSeq, tag(5));
  q.Push(7, kTop, kTop, 0, tag(4));
  q.Push(7, kTop, 0, kLastSeq, tag(3));
  q.Push(7, kTop - 1, kTop, kLastSeq, tag(2));
  q.Push(7, 0, kTop, kLastSeq, tag(1));
  q.Push(6, kTop, kTop, kLastSeq, tag(0));
  q.Push(kSimTimeNever - 1, 0, 0, 0, tag(6));
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueDeathTest, RejectsTagsOutsideTheirFields) {
  EventQueue q;
  EXPECT_DEATH(q.Push(0, EventQueue::kMaxDomains, 0, 0, [] {}),
               "out of range");
  EXPECT_DEATH(q.Push(0, 0, EventQueue::kMaxDomains, 0, [] {}),
               "out of range");
  EXPECT_DEATH(q.Push(0, 0, 0, EventQueue::kMaxSeq, [] {}), "out of range");
}

TEST(EventQueueTest, SameOriginFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    // One origin, one instant, one domain: seq is the schedule counter.
    q.Push(10, 1, 2, static_cast<uint64_t>(i),
           [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// --- Domain scheduling on the single-threaded Simulator -------------------

TEST(SimulatorTest, ControlRunsBeforeDataAtTheSameInstant) {
  Simulator sim;
  sim.set_lookahead(1000);
  std::vector<std::string> order;
  sim.ScheduleIn(DomainOfNode(0), 1000,
                 [&] { order.push_back("data"); });
  sim.ScheduleControl(1000, [&] { order.push_back("control"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"control", "data"}));
}

TEST(SimulatorTest, ZeroLatencySelfSendStaysAtTheInstant) {
  // A zero-delay send within one domain does not cross any lookahead
  // boundary: it fires at the same simulated instant, inside the window.
  Simulator sim;
  sim.set_lookahead(1000);
  std::vector<SimTime> fired;
  sim.ScheduleIn(DomainOfNode(0), 150, [&] {
    sim.Schedule(0, [&] {
      fired.push_back(sim.now());
      EXPECT_EQ(sim.current_domain(), DomainOfNode(0));
    });
  });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{150}));
}

TEST(SimulatorTest, ControlFromDataClampsPastTheWindow) {
  // ScheduleControl from a data-domain event may not land inside the
  // window that is executing: delay 0 at t=100 rounds up to the boundary.
  Simulator sim;
  sim.set_lookahead(1000);
  SimTime fired = 0;
  sim.ScheduleIn(DomainOfNode(0), 100, [&] {
    sim.ScheduleControl(0, [&] { fired = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, 1000u);
}

TEST(SimulatorTest, ControlWithoutLookaheadIsPlainScheduling) {
  Simulator sim;  // lookahead 0: no grid
  SimTime fired = 0;
  sim.ScheduleControl(70, [&] { fired = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired, 70u);
}

// --- ShardedSimulator: same semantics across real threads -----------------

// A deterministic message-passing program over `nodes` domains: every node
// launches a token that hops around the ring with one lookahead of latency
// per hop, and each arrival does a zero-latency self-send before forwarding.
// Every arrival at node 0 (shard 0, which the coordinating thread runs) also
// hops data -> control -> data: a control event logs it and sends it back.
// Returns the per-domain observation logs (each domain's sequence is the
// determinism contract; a global interleaving across domains is not).
std::vector<std::vector<int>> RunRingProgram(Scheduler* sim,
                                             uint32_t nodes) {
  constexpr SimTime kLat = 1000;
  std::vector<std::vector<int>> log(nodes + 1);
  std::function<void(uint32_t, int, int)> forward =
      [&](uint32_t node, int token, int hops) {
        if (hops == 0) return;
        const uint32_t next = (node + 1) % nodes;
        sim->ScheduleIn(
            DomainOfNode(next), sim->now() + kLat,
            [&, next, token, hops] {
              log[DomainOfNode(next)].push_back(token * 100 + hops);
              sim->Schedule(0, [&, next, token, hops] {
                log[DomainOfNode(next)].push_back(-(token * 100 + hops));
                if (next == 0) {
                  sim->ScheduleControl(kLat, [&, token, hops] {
                    log[kControlDomain].push_back(token * 100 + hops);
                    sim->ScheduleIn(DomainOfNode(0), sim->now() + kLat,
                                    [&, token, hops] {
                                      log[DomainOfNode(0)].push_back(
                                          10000 + token * 100 + hops);
                                    });
                  });
                }
                forward(next, token, hops - 1);
              });
            });
      };
  for (uint32_t n = 0; n < nodes; ++n) {
    forward(n, static_cast<int>(n) + 1, 6);
  }
  sim->Run();
  return log;
}

TEST(ShardedSimulatorTest, MatchesSingleThreadedAtAnyShardCount) {
  // More nodes than hardware threads, so the widest runs park rather than
  // spin; shard counts past the node count run one shard per node.
  const uint32_t hw = std::thread::hardware_concurrency();
  const uint32_t nodes = std::max(4u, hw + 1);
  Simulator reference;
  reference.set_lookahead(1000);
  const auto want = RunRingProgram(&reference, nodes);
  ASSERT_FALSE(want[kControlDomain].empty());
  for (uint32_t shards : {1u, 2u, 3u, 4u, nodes, nodes + 3}) {
    ShardedSimulator sim(shards, nodes + 1);
    EXPECT_EQ(sim.num_shards(), std::min(shards, nodes));
    sim.set_lookahead(1000);
    const auto got = RunRingProgram(&sim, nodes);
    EXPECT_EQ(got, want) << "shards=" << shards;
  }
}

TEST(ShardedSimulatorTest, ParkedWorkersJoinPromptlyWithoutEverRunning) {
  // Idle workers spin briefly and then park; the destructor must wake them
  // even though no window was ever released.
  auto sim = std::make_unique<ShardedSimulator>(4, 5);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::promise<void> joined;
  std::future<void> done = joined.get_future();
  std::thread destroyer(
      [sim = std::move(sim), joined = std::move(joined)]() mutable {
        sim.reset();
        joined.set_value();
      });
  const bool prompt =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (prompt) {
    destroyer.join();
  } else {
    destroyer.detach();  // still blocked in the destructor; joining hangs
  }
  EXPECT_TRUE(prompt) << "destroying a simulator left its workers parked";
}

TEST(ShardedSimulatorTest, BarrierEdgeEventBelongsToTheNextWindow) {
  // An event exactly on a window boundary runs in the window that starts
  // there — after any control event due at the same instant, which runs
  // between windows. (Control and data callbacks here are sequenced by the
  // window handoff, so one shared log is race-free.)
  ShardedSimulator sim(2, 3);
  sim.set_lookahead(1000);
  std::vector<std::string> order;
  sim.ScheduleIn(DomainOfNode(0), 999, [&] { order.push_back("data@999"); });
  sim.ScheduleIn(DomainOfNode(0), 1000,
                 [&] { order.push_back("data@1000"); });
  sim.ScheduleControl(1000, [&] { order.push_back("control@1000"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"data@999", "control@1000",
                                             "data@1000"}));
  EXPECT_EQ(sim.now(), 1000u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(ShardedSimulatorTest, RunUntilClearAndIdle) {
  ShardedSimulator sim(2, 3);
  sim.set_lookahead(10);
  int fired = 0;
  sim.ScheduleIn(DomainOfNode(0), 5, [&] { ++fired; });
  sim.ScheduleIn(DomainOfNode(1), 25, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_FALSE(sim.idle());
  sim.Clear();
  EXPECT_TRUE(sim.idle());
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSimulatorTest, ClearReleasesCapturesOfEventsSentAcrossShards) {
  ShardedSimulator sim(2, 3);
  sim.set_lookahead(10);
  auto token = std::make_shared<int>(0);
  // Node 0 (shard 0) sends to node 1 (shard 1): the event waits in shard
  // 0's outbox until the window ends, then in shard 1's queue.
  sim.ScheduleIn(DomainOfNode(0), 5, [&sim, token] {
    sim.ScheduleIn(DomainOfNode(1), 25, [token] { ++*token; });
  });
  sim.ScheduleIn(DomainOfNode(1), 6, [token] {});  // runs on shard 1
  sim.RunUntil(20);
  EXPECT_EQ(token.use_count(), 2);  // only the parked cross-shard event
  sim.Clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
}

TEST(CpuResourceTest, DomainTargetedSubmit) {
  Simulator sim;
  sim.set_lookahead(100);
  CpuResource cpu(&sim, DomainOfNode(2));
  SimTime done = 0;
  DomainId dom = 999;
  cpu.Submit(50, [&] {
    done = sim.now();
    dom = sim.current_domain();
  });
  sim.Run();
  EXPECT_EQ(done, 50u);
  EXPECT_EQ(dom, DomainOfNode(2));
}

TEST(CpuResourceTest, SerialExecution) {
  Simulator sim;
  CpuResource cpu(&sim);
  std::vector<SimTime> done_at;
  cpu.Submit(100, [&] { done_at.push_back(sim.now()); });
  cpu.Submit(50, [&] { done_at.push_back(sim.now()); });
  sim.Run();
  // Second item queues behind the first: 100, then 150.
  EXPECT_EQ(done_at, (std::vector<SimTime>{100, 150}));
}

TEST(CpuResourceTest, IdleGapThenWork) {
  Simulator sim;
  CpuResource cpu(&sim);
  std::vector<SimTime> done_at;
  cpu.Submit(10, [&] { done_at.push_back(sim.now()); });
  sim.Schedule(1000, [&] {
    cpu.Submit(10, [&] { done_at.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(done_at, (std::vector<SimTime>{10, 1010}));
}

TEST(CpuResourceTest, UtilizationAccounting) {
  Simulator sim;
  CpuResource cpu(&sim);
  cpu.Submit(300, [] {});
  sim.Run();
  sim.RunUntil(1000);
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 0.3);
  EXPECT_EQ(cpu.total_busy(), 300u);
}

TEST(CpuResourceTest, SaturationModel) {
  // Offered load beyond capacity: completion rate pinned to CPU capacity —
  // the mechanism behind the Figure 9a throughput plateau.
  Simulator sim;
  CpuResource cpu(&sim);
  int completed = 0;
  for (int i = 0; i < 1000; ++i) {
    cpu.Submit(100, [&] { ++completed; });
  }
  sim.RunUntil(10000);
  EXPECT_EQ(completed, 100);  // 10000 ns / 100 ns each
}

// --- Fn: the move-only callable behind every event and continuation -----

/// Counts its own copies and moves.
struct CopyCounter {
  CopyCounter(int* copies, int* moves) : copies(copies), moves(moves) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), moves(o.moves) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& o) noexcept : copies(o.copies), moves(o.moves) {
    ++*moves;
  }
  int* copies;
  int* moves;
};

TEST(FnTest, MovingATaskNeverCopiesOrMovesItsCapture) {
  int copies = 0;
  int moves = 0;
  int runs = 0;
  Task f([counter = CopyCounter(&copies, &moves), &runs] {
    (void)counter;
    ++runs;
  });
  EXPECT_EQ(copies, 0);
  const int built = moves;  // the lambda moved once into its node
  Task g = std::move(f);
  Task h;
  h = std::move(g);
  EXPECT_FALSE(f);
  EXPECT_FALSE(g);
  // Through the event heap and out again: entries move, closures do not.
  Simulator sim;
  sim.Schedule(3, [] {});
  sim.Schedule(1, std::move(h));
  sim.Schedule(2, [] {});
  sim.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(moves, built);
}

TEST(FnTest, BoolSignatureForwardsItsArgument) {
  std::vector<bool> seen;
  Fn<void(bool)> cb = [&seen](bool ok) { seen.push_back(ok); };
  cb(true);
  cb(false);
  Fn<void(bool)> moved = std::move(cb);
  moved(true);
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true}));
}

TEST(FnTest, ClosuresPastTheLargestClassBypassThePool) {
  // A fresh thread starts with empty free lists.
  std::thread([] {
    std::array<char, 600> big{};
    { Task t([big] { (void)big; }); }
    EXPECT_EQ(fn_pool::FreeNodes(), 0u);
    { Task t([] {}); }
    EXPECT_EQ(fn_pool::FreeNodes(), fn_pool::kPooled ? 1u : 0u);
  }).join();
}

TEST(FnTest, EachThreadKeepsAtMostTheCapPerClass) {
  std::thread([] {
    std::vector<Task> many;
    for (uint32_t i = 0; i < fn_pool::kMaxFreePerClass + 10; ++i) {
      many.emplace_back([] {});
    }
    many.clear();
    EXPECT_EQ(fn_pool::FreeNodes(),
              fn_pool::kPooled ? fn_pool::kMaxFreePerClass : 0u);
  }).join();
}

}  // namespace
}  // namespace chiller::sim
