// ppstats_analyze self-test fixture (not built; parsed only).
// The seeded pool-self-wait violation has the shape of a coordinator
// fan-out that parks a shared-pool worker: a frame task on
// ThreadPool::Shared() runs the shard legs with Run() — the caller
// executes indices — and each leg sleeps, dials, sends and receives.
// The handed-off shape, where the frame task Submit()s its legs to
// another pool and returns, must NOT be reported.
#include "common/thread_pool.h"
#include "net/channel.h"

void BlockingLeg(ppstats::Channel* channel) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto dialed = ppstats::ConnectChannel("unix:/shard.sock");
  channel->Send(ppstats::Bytes{}).IgnoreError();
  channel->Receive().status().IgnoreError();
}

void BlockingFanOut(ppstats::ThreadPool* pool, ppstats::Channel* channel) {
  auto task = [=] { pool->Run(4, [=](size_t) { BlockingLeg(channel); }); };
  ppstats::ThreadPool::Shared().Submit(task);
}

void HandedOffLeg(ppstats::Channel* channel) {
  channel->Receive().status().IgnoreError();
}

void HandedOffFanOut(ppstats::ThreadPool* leg_pool, ppstats::Channel* channel) {
  ppstats::ThreadPool::Shared().Submit([=] {
    leg_pool->Submit([=] { HandedOffLeg(channel); });
  });
}
