#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>

#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "obs/sink.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"

// --- Heap-allocation counter. ---
// As in bench/micro_cycle.cpp, the benchmark replaces global operator
// new/delete so it can count every allocation made while the armed
// flag is set: the steady-state window of probeSteadyState(). Outside
// that window the replacement is a relaxed load and a malloc.

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_heapAllocs{0};

void*
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void*
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench {

using namespace footprint;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
Tracer::begin(const std::string& name)
{
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.name = name;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name && s.endNs >= s.startNs)
            out.push_back(s.seconds());
    }
    return out;
}

bool
Tracer::write(const std::string& path,
              const std::string& context_json) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"schema\":\"footprint.perfbench.spans/1\",\"context\":"
       << context_json << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"name\":\""
           << jsonEscape(s.name) << "\",\"start_ns\":"
           << s.startNs - t0 << ",\"end_ns\":" << s.endNs - t0 << '}';
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

namespace {

/** Number following the first @p key at or after @p from, or npos. */
std::size_t
numberAfter(const std::string& doc, const std::string& key,
            std::size_t from, double& out)
{
    const std::size_t at = doc.find(key, from);
    if (at == std::string::npos)
        return std::string::npos;
    const char* begin = doc.c_str() + at + key.size();
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin)
        return std::string::npos;
    return static_cast<std::size_t>(end - doc.c_str());
}

} // namespace

bool
readProfileRow(const std::string& path, ProfileRow& row)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string doc = ss.str();
    const std::size_t rows = doc.find("\"rows\":[");
    if (rows == std::string::npos)
        return false;

    double v = 0.0;
    if (numberAfter(doc, "\"threads\":", rows, v) == std::string::npos)
        return false;
    row.threads = static_cast<int>(v);
    if (numberAfter(doc, "\"cycles\":", rows, v) == std::string::npos)
        return false;
    row.cycles = static_cast<std::int64_t>(v);
    if (numberAfter(doc, "\"wall_seconds\":", rows, row.wallSeconds)
        == std::string::npos)
        return false;
    row.phaseSeconds.clear();
    for (int p = 0; p < static_cast<int>(ProfPhase::Count); ++p) {
        const std::string key = std::string("{\"name\":\"")
            + profPhaseName(static_cast<ProfPhase>(p))
            + "\",\"seconds\":";
        if (numberAfter(doc, key, rows, v) == std::string::npos)
            return false;
        row.phaseSeconds.push_back(v);
    }

    row.sharded = doc.find("\"sharded\":{", rows) != std::string::npos;
    row.shardBusySeconds.clear();
    if (!row.sharded)
        return true;
    const std::string busy_key = "\"shard_busy_seconds\":[";
    std::size_t at = doc.find(busy_key, rows);
    if (at == std::string::npos)
        return false;
    at += busy_key.size();
    while (at < doc.size() && doc[at] != ']') {
        char* end = nullptr;
        row.shardBusySeconds.push_back(
            std::strtod(doc.c_str() + at, &end));
        at = static_cast<std::size_t>(end - doc.c_str());
        if (at < doc.size() && doc[at] == ',')
            ++at;
    }
    return numberAfter(doc, "\"imbalance_ratio\":", rows, row.imbalance)
            != std::string::npos
        && numberAfter(doc, "\"p50_ns\":", rows, row.barrierP50Ns)
            != std::string::npos
        && numberAfter(doc, "\"p99_ns\":", rows, row.barrierP99Ns)
            != std::string::npos;
}

ProbeResult
probeSteadyState(const SimConfig& cfg, std::int64_t warm_cycles,
                 std::int64_t count_cycles, int snapshots)
{
    constexpr std::int64_t kSnapshotSpacing = 7;
    Network net(cfg);
    const int nodes = net.mesh().numNodes();
    const std::int64_t cycles = warm_cycles + count_cycles
        + static_cast<std::int64_t>(snapshots) * kSnapshotSpacing;
    Rng gen(static_cast<std::uint64_t>(cfg.getInt("seed")));
    InjectionSchedule sched(nodes, cfg.getDouble("injection_rate"), gen);

    // Pre-size every capacity a saturated run grows into, so the
    // counter sees the simulator's steady state rather than first-touch
    // growth of the benchmark's own buffers (bench/micro_cycle.cpp does
    // the same).
    for (int n = 0; n < nodes; ++n)
        net.endpoint(n).reserveSourceQueue(
            static_cast<std::size_t>(cycles) + 1);
    net.packetPool().reserveSlotCapacity(
        static_cast<std::size_t>(cycles) + 2);
    std::vector<EjectedPacket> scratch;
    scratch.reserve(64);

    ProbeResult out;
    std::uint64_t id = 0;
    std::uint64_t requests = 0;
    std::uint64_t allocs_at_arm = 0;
    OutputSet set;
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        if (cycle == warm_cycles) {
            allocs_at_arm = g_heapAllocs.load(std::memory_order_relaxed);
            g_countAllocs.store(true, std::memory_order_relaxed);
        }
        for (int slot; (slot = sched.popDue(cycle)) >= 0;) {
            const int dest = static_cast<int>(
                gen.nextBounded(static_cast<std::uint64_t>(nodes)));
            sched.scheduleNext(slot, cycle, gen);
            if (dest == slot)
                continue;
            Packet p;
            p.id = ++id;
            p.src = slot;
            p.dest = dest;
            p.size = 1;
            p.createTime = cycle;
            net.endpoint(slot).enqueue(p);
        }
        net.step(cycle);
        for (int n = 0; n < nodes; ++n) {
            if (net.endpoint(n).ejectedCount() == 0)
                continue;
            scratch.clear();
            net.endpoint(n).drainEjectedInto(scratch);
        }
        if (cycle == warm_cycles + count_cycles - 1) {
            g_countAllocs.store(false, std::memory_order_relaxed);
            out.allocsPerCycle = static_cast<double>(
                                     g_heapAllocs.load(
                                         std::memory_order_relaxed)
                                     - allocs_at_arm)
                / static_cast<double>(count_cycles);
            out.routeNs.reserve(static_cast<std::size_t>(snapshots)
                                * static_cast<std::size_t>(nodes) * 8);
        }
        // Routing snapshot: every head flit waiting for an output VC,
        // routed once more against the router's live state. The calls
        // draw tie-breaks from the router RNG, so they perturb the
        // rest of this (discarded) run but nothing else.
        const std::int64_t after = cycle - (warm_cycles + count_cycles);
        if (after < 0 || after % kSnapshotSpacing != 0)
            continue;
        const RoutingAlgorithm& routing = net.routing();
        const int vcs = net.routerParams().numVcs;
        for (int n = 0; n < nodes; ++n) {
            const Router& r = net.router(n);
            for (int port = 0; port < kNumPorts; ++port) {
                for (int vc = 0; vc < vcs; ++vc) {
                    const InputVc& ivc = r.inputVc(port, vc);
                    if (ivc.state != InputVc::State::VcAlloc
                        || ivc.empty())
                        continue;
                    set.clear();
                    const std::uint64_t t0 = nowNs();
                    routing.route(r, ivc.front(), set);
                    const std::uint64_t t1 = nowNs();
                    out.routeNs.push_back(static_cast<double>(t1 - t0));
                    requests += set.requests().size();
                }
            }
        }
    }
    if (!out.routeNs.empty())
        out.requestsPerRoute = static_cast<double>(requests)
            / static_cast<double>(out.routeNs.size());
    return out;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
