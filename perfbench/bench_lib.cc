#include "bench_lib.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t
SeedStream::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SeedStream::uniform()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

using Clock = std::chrono::steady_clock;

/** Reference-host times of ReferenceWork's two slice parts (4-vCPU
 *  Intel Xeon, serial, lightly loaded). Any fixed values would do:
 *  they only set the scale of the normalized timings. */
constexpr double kTableSliceS = 0.00080;
constexpr double kMapSliceS = 0.0140;

constexpr std::size_t kTableWords = 1 << 16;  // 256 KiB: L2-resident
constexpr std::size_t kMapKeys = 60'000;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

ReferenceWork::ReferenceWork() : table(kTableWords), keys(kMapKeys)
{
    SeedStream rng(0x7ab1e);
    for (std::uint32_t &x : table)
        x = static_cast<std::uint32_t>(rng.next());
    for (std::uint32_t &x : keys)
        x = static_cast<std::uint32_t>(rng.next());
}

double
ReferenceWork::tableSlice()
{
    const auto t0 = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (int round = 0; round < 40; ++round) {
        for (std::size_t i = 0; i < table.size(); i += 4) {
            a += table[i] * 0x9e37ULL;
            b ^= table[i + 1] + (b << 3);
            c += table[i + 2] ^ (c >> 5);
            d *= table[i + 3] | 1;
        }
    }
    sum += a + b + c + d;
    return secondsSince(t0);
}

double
ReferenceWork::mapSlice()
{
    const auto t0 = Clock::now();
    std::map<std::uint32_t, std::uint32_t> m;
    for (std::size_t i = 0; i < keys.size(); ++i)
        m[keys[i]] += static_cast<std::uint32_t>(i);
    for (const auto &[key, value] : m)
        sum += key ^ value;
    return secondsSince(t0);
}

double
ReferenceWork::slowdown()
{
    const double table_s = tableSlice();
    const double map_s = mapSlice();
    return std::sqrt((table_s / kTableSliceS) * (map_s / kMapSliceS));
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

std::vector<wsl::ArrivalSpec>
makeArrivalTrace(std::uint64_t seed, double rate_per_10k,
                 wsl::Cycle horizon, const std::vector<double> &weights)
{
    if (!(rate_per_10k > 0.0) || weights.empty())
        throw std::invalid_argument("arrival trace needs a rate and "
                                    "at least one tenant");
    double total = 0.0;
    for (double w : weights)
        total += w;
    const double mean_gap = 10'000.0 / rate_per_10k;

    SeedStream rng(seed);
    std::vector<wsl::ArrivalSpec> trace;
    double t = 0.0;
    for (;;) {
        t += std::max(1.0, -std::log1p(-rng.uniform()) * mean_gap);
        if (t >= static_cast<double>(horizon))
            break;
        double pick = rng.uniform() * total;
        unsigned tenant = 0;
        while (tenant + 1 < weights.size() && pick >= weights[tenant])
            pick -= weights[tenant++];
        wsl::ArrivalSpec spec;
        spec.cycle = static_cast<wsl::Cycle>(t);
        spec.tenant = tenant;
        trace.push_back(spec);
    }
    return trace;
}

wsl::FaultPlan
makeFaultPlan(std::uint64_t seed, unsigned count, wsl::Cycle horizon,
              unsigned num_tenants)
{
    static constexpr wsl::FaultKind kinds[] = {
        wsl::FaultKind::Recoverable, wsl::FaultKind::Stall,
        wsl::FaultKind::Recoverable, wsl::FaultKind::Malformed};
    wsl::FaultPlan plan;
    if (num_tenants == 0 || horizon < 8)
        return plan;
    // A stream distinct from the arrival trace's for the same seed.
    SeedStream rng(seed ^ 0x5eedfa17c4a05ULL);
    const wsl::Cycle lo = horizon / 8;
    const wsl::Cycle span = horizon * 3 / 4;
    // Tenants take turns from a seeded start, so no tenant draws more
    // than ceil(count / num_tenants) faults: below the serve engine's
    // quarantine threshold for the benchmark's plans, which keeps the
    // amount of simulated work from swinging with the seed.
    const std::uint64_t first = rng.next() % num_tenants;
    for (unsigned i = 0; i < count; ++i) {
        wsl::Fault f;
        f.cycle = lo + rng.next() % span;
        f.tenant = static_cast<unsigned>((first + i) % num_tenants);
        f.kind = kinds[i % 4];
        plan.faults.push_back(f);
    }
    std::stable_sort(plan.faults.begin(), plan.faults.end(),
                     [](const wsl::Fault &a, const wsl::Fault &b) {
                         return a.cycle < b.cycle;
                     });
    return plan;
}

std::vector<std::string>
ledgerErrors(const std::vector<wsl::ClassSlo> &classes,
             const std::vector<wsl::ServeJob> &jobs)
{
    using wsl::JobOutcome;
    std::vector<std::string> errors;
    auto fail = [&](std::size_t cls, const std::string &law) {
        errors.push_back("class " + std::to_string(cls) + ": " + law);
    };

    // Per-class counts rebuilt from the per-job terminal states.
    struct Counts
    {
        std::uint64_t arrivals = 0, rejected = 0, completed = 0,
                      shed = 0, timedOut = 0, failed = 0, pending = 0,
                      goodput = 0;
    };
    std::vector<Counts> seen(classes.size());
    for (const wsl::ServeJob &job : jobs) {
        if (job.tenant >= classes.size()) {
            errors.push_back("job " + std::to_string(job.id) +
                             " names tenant " +
                             std::to_string(job.tenant));
            continue;
        }
        Counts &c = seen[job.tenant];
        ++c.arrivals;
        switch (job.outcome) {
          case JobOutcome::Completed:
            ++c.completed;
            c.goodput += job.deadlineMet ? 1 : 0;
            break;
          case JobOutcome::Rejected: ++c.rejected; break;
          case JobOutcome::Shed: ++c.shed; break;
          case JobOutcome::TimedOut: ++c.timedOut; break;
          case JobOutcome::Failed: ++c.failed; break;
          case JobOutcome::Pending:
          case JobOutcome::Running: ++c.pending; break;
        }
    }

    for (std::size_t i = 0; i < classes.size(); ++i) {
        const wsl::ClassSlo &s = classes[i];
        const Counts &c = seen[i];
        const std::uint64_t rejected = s.rejectedQueueFull +
                                       s.rejectedQuarantined +
                                       s.rejectedMalformed;
        if (s.arrivals != s.admitted + rejected)
            fail(i, "arrivals != admitted + rejected");
        if (s.admitted != s.completed + s.shed + s.timedOut + s.failed +
                              s.pendingAtEnd)
            fail(i, "admitted != completed + shed + timed_out + "
                    "failed + pending_at_end");
        if (s.goodput + s.deadlineMiss != s.completed + s.timedOut)
            fail(i, "goodput + deadline_miss != completed + timed_out");
        if (c.arrivals != s.arrivals || c.rejected != rejected ||
            c.completed != s.completed || c.shed != s.shed ||
            c.timedOut != s.timedOut || c.failed != s.failed ||
            c.pending != s.pendingAtEnd || c.goodput != s.goodput)
            fail(i, "job outcomes disagree with the class counters");
    }
    return errors;
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

Tail
highestSupportedPercentile(const std::vector<double> &samples,
                           const std::vector<double> &ladder,
                           std::size_t min_beyond)
{
    Tail best;
    const double n = static_cast<double>(samples.size());
    for (double pct : ladder) {
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(pct / 100.0 * n)));
        if (rank > samples.size() || samples.size() - rank < min_beyond)
            continue;
        best.pct = pct;
        best.value = percentile(samples, pct);
        best.beyond = samples.size() - rank;
    }
    return best;
}

namespace {

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

void
appendNumber(std::string &out, double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("bad metric name '" + name + "'");
    if (!validUnit(unit))
        throw std::invalid_argument("bad unit '" + unit + "' for " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite value for " + name);
    for (const Entry &e : entries)
        if (e.name == name)
            throw std::invalid_argument("duplicate metric " + name);
    entries.push_back({name, value, unit});
}

std::string
MetricSet::resultLine(bool correct, std::uint64_t attempted,
                      std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + entries[i].name + "\": {\"value\": ";
        appendNumber(out, entries[i].value);
        out += ", \"unit\": \"" + entries[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[p].push_back(static_cast<int>(i));
    }

    std::map<std::string, std::int64_t> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (int c : children[i]) {
            const std::int64_t lo = std::max(s.startNs, spans[c].startNs);
            const std::int64_t hi = std::min(s.endNs, spans[c].endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            if (hi <= reach)
                continue;
            covered += hi - std::max(lo, reach);
            reach = hi;
        }
        self[s.name] += (s.endNs - s.startNs) - covered;
    }
    return self;
}

SpanRecorder::SpanRecorder(std::string run_id)
    : runId(std::move(run_id)), origin(Clock::now())
{
}

int
SpanRecorder::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open.empty() ? -1 : open.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin)
                    .count();
    list.push_back(std::move(s));
    open.push_back(static_cast<int>(list.size() - 1));
    return open.back();
}

void
SpanRecorder::end(int id)
{
    if (open.empty() || open.back() != id)
        throw std::logic_error("span closed out of order");
    open.pop_back();
    list[id].endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - origin)
                         .count();
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        std::string ts, dur;
        appendNumber(ts, static_cast<double>(s.startNs) / 1e3);
        appendNumber(dur, static_cast<double>(s.endNs - s.startNs) / 1e3);
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
           << ", \"dur\": " << dur << ", \"args\": {\"run\": \"" << runId
           << "\", \"id\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

} // namespace perfbench
