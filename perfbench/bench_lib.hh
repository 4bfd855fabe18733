/**
 * @file
 * Helpers of the warped-slicer benchmark (perfbench/): seeded
 * workload inputs the benchmark owns, the serve-ledger checker, the
 * percentile rule used for every reported timing, metric-name
 * validation and the result line, a result digest, and the in-memory
 * span recorder behind the traced run. Everything here is independent
 * of host speed, so perfbench_test can pin it exactly.
 */

#ifndef WSL_PERFBENCH_BENCH_LIB_HH
#define WSL_PERFBENCH_BENCH_LIB_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/arrival.hh"
#include "serve/chaos.hh"
#include "serve/slo.hh"
#include "serve/tenant.hh"

namespace perfbench {

/**
 * splitmix64 stream. The benchmark draws its own inputs from this
 * rather than from the simulator's Rng, so a change to the
 * simulator's generators cannot change what a seed means.
 */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();

  private:
    std::uint64_t state;
};

/**
 * Benchmark-owned reference work that measures how fast the host runs
 * right now. Shared hosts drift by tens of percent within a minute,
 * and the simulator slows with them; a plain ALU loop or a DRAM-bound
 * pointer chase does not, but throughput-bound work over an
 * L2-resident table and std::map insertion (allocation, pointer
 * chasing, unpredictable branches) do. The benchmark runs one slice
 * of this work next to every timed call and divides its times by the
 * slowdown, so a timing reads as seconds on the reference host. The
 * work lives here, not in the simulator, so no change to the
 * simulator can move it.
 */
class ReferenceWork
{
  public:
    ReferenceWork();

    /** Run one slice and return the host's slowdown against the
     *  reference host: 1.0 = reference speed, 1.3 = 30% slower. */
    double slowdown();

    /** Checksum of every slice run so far (pins the work). */
    std::uint64_t checksum() const { return sum; }

  private:
    /** The slice's two parts; each returns its time in seconds. */
    double tableSlice();
    double mapSlice();

    std::vector<std::uint32_t> table;
    std::vector<std::uint32_t> keys;
    std::uint64_t sum = 0;
};

/** Median of `v` (mean of the middle two for an even count; 0 when
 *  empty). */
double median(std::vector<double> v);

/** Seconds elapsed since `t0` on the steady clock. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/** Open-loop Poisson arrivals at `rate_per_10k` arrivals per 10'000
 *  cycles over [0, horizon), each assigned to a tenant with
 *  probability proportional to `weights`. Sorted by cycle. */
std::vector<wsl::ArrivalSpec>
makeArrivalTrace(std::uint64_t seed, double rate_per_10k,
                 wsl::Cycle horizon, const std::vector<double> &weights);

/** `count` faults at seeded cycles in [horizon/8, 7*horizon/8),
 *  tenants taking turns from a seeded start, kinds rotating
 *  recoverable / stall / recoverable / malformed. Sorted by cycle. */
wsl::FaultPlan makeFaultPlan(std::uint64_t seed, unsigned count,
                             wsl::Cycle horizon, unsigned num_tenants);

/**
 * Re-check a serve run's outcome ledger: per class, every arrival is
 * admitted or rejected, every admitted job settles exactly once,
 * goodput and deadline misses partition completed + timed-out jobs,
 * and the per-job terminal states agree with the class counters.
 * Returns one message per broken law (empty = ledger holds).
 */
std::vector<std::string>
ledgerErrors(const std::vector<wsl::ClassSlo> &classes,
             const std::vector<wsl::ServeJob> &jobs);

/** Nearest-rank percentile `pct` (0 < pct <= 100) of `samples`. */
double percentile(std::vector<double> samples, double pct);

/** A percentile together with its support. */
struct Tail
{
    double pct = 0.0;        //!< 0 when no percentile qualifies
    double value = 0.0;
    std::size_t beyond = 0;  //!< samples strictly above its rank
};

/**
 * The highest percentile of `ladder` (ascending) that has at least
 * `min_beyond` samples beyond its nearest rank; pct = 0 when none
 * does. Reported timings use this so that a tail is never read from
 * a handful of samples.
 */
Tail highestSupportedPercentile(const std::vector<double> &samples,
                                const std::vector<double> &ladder,
                                std::size_t min_beyond = 10);

/** Metric names: 1-64 of letters, digits, '_', '.', '-', starting
 *  with a letter or digit. */
bool validMetricName(std::string_view name);
/** Units: 1-16 of letters, digits, '_', '/', '%', '.', '-'. */
bool validUnit(std::string_view unit);

/** Named metrics with units, printed as the result line. */
class MetricSet
{
  public:
    /** Throws std::invalid_argument on a bad name or unit, a
     *  duplicate, or a non-finite value. */
    void add(const std::string &name, double value,
             const std::string &unit);

    /** {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
     *  on one line, values printed with every significant digit. */
    std::string resultLine(bool correct, std::uint64_t attempted,
                           std::uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** FNV-1a 64 over a stream of simulated results. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t value);
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** One recorded span; times are ns since the recorder's origin. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;  //!< index into the span list, -1 = root
};

/**
 * Self time per span name: each span's duration minus the part of its
 * interval that its direct children cover (overlapping children are
 * counted once), summed over spans of the same name.
 */
std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans);

/**
 * In-memory span recorder. Spans nest by open/close order; everything
 * is kept in memory and written out once, at exit, as Chrome
 * trace-event JSON.
 */
class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanRecorder(std::string run_id);

    /** Open a span as a child of the innermost open span. */
    int begin(std::string name);
    /** Close span `id` (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return list; }
    void writeChromeTrace(std::ostream &os) const;

    /** RAII span; a null recorder records nothing. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, std::string name)
            : rec(rec), id(rec ? rec->begin(std::move(name)) : -1)
        {
        }
        ~Scope()
        {
            if (rec)
                rec->end(id);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec;
        int id;
    };

  private:
    std::string runId;
    Clock::time_point origin;
    std::vector<Span> list;
    std::vector<int> open;
};

} // namespace perfbench

#endif // WSL_PERFBENCH_BENCH_LIB_HH
