#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/**
 * @file
 * Shared plumbing of the benchmark harness: clocks, the input RNG,
 * latency samples, the span tracer, process probes (CPU time, peak
 * RSS, thread pinning) and the result record every workload fills.
 *
 * The harness owns its input generation (SplitMix64 keyed by the
 * benchmark seed and an op index), so the program under test only
 * ever sees the requests generated here, and a change to the program's
 * own util::Rng cannot change the inputs two commits are compared on.
 */

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- clocks ------------------------------------------------------------

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of every thread of this process, in nanoseconds. */
std::uint64_t processCpuNs();

/** utime+stime of every thread of process @p pid, in nanoseconds
 * (from /proc/<pid>/stat; clock-tick resolution). */
std::uint64_t procCpuNs(pid_t pid);

/** Peak resident set (VmHWM) of @p pid in MiB; 0 for self. */
double peakRssMb(pid_t pid = 0);

/** Pin thread @p tid (0 = calling thread) to CPU @p cpu.  Returns
 * false when the CPU is outside the allowed set. */
bool pinThread(pid_t tid, int cpu);

/** CPUs this process could run on at startup, in ascending order. */
std::vector<int> allowedCpus();

/** Let the calling thread run on every allowed CPU again (children
 * inherit the spawning thread's affinity). */
void unpinSelf();

/** Thread ids of process @p pid. */
std::vector<pid_t> threadsOf(pid_t pid);

// --- inputs ------------------------------------------------------------

/** SplitMix64 stream: the benchmark's only source of input entropy. */
class InputRng
{
  public:
    /** Stream keyed by (seed, a, b): independent of draw order. */
    InputRng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);
    std::uint64_t next();
    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Uniform double in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t state_;
};

/** FNV-1a over @p size bytes, chained from @p h. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

// --- samples -------------------------------------------------------------

/** Latency samples in nanoseconds with nearest-rank percentiles. */
class Samples
{
  public:
    void add(std::uint64_t ns) { v_.push_back(ns); }
    void append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    std::size_t size() const { return v_.size(); }
    /** Nearest-rank quantile q in [0,1], in nanoseconds (0 if empty). */
    double quantileNs(double q) const;
    double sumNs() const;

  private:
    mutable std::vector<std::uint64_t> v_;
    mutable bool sorted_ = false;
};

/**
 * Windowed medians.  A run is cut into windows of about equal length;
 * each window yields its own p50 latency and CPU per op, and the run
 * reports the median over windows, so outside load that hits one
 * window (a noisy neighbour, a writeback burst) does not move the
 * result.
 */
struct Windows
{
    std::vector<double> p50Us;
    std::vector<double> cpuUsPerOp;
    void add(const Samples &lat, std::uint64_t ops, std::uint64_t cpu_ns);
};

/** Windows per measured phase. */
constexpr int kWindows = 10;

// --- tracing -------------------------------------------------------------

/**
 * In-memory span recorder.  One Tracer per thread; spans carry a name
 * id, start/end, the index of the parent span (-1 for a root) and the
 * op id shared by every span of one op.  Nothing is written until
 * writeSpans() runs at exit.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t name = 0;
        std::int32_t parent = -1;
        std::uint64_t op = 0;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
    };

    /** Intern a span name (not thread-safe; intern before workers). */
    static std::uint32_t nameId(const std::string &name);
    static const std::string &nameOf(std::uint32_t id);

    /** Open a span; returns its index (pass to close()). */
    std::int32_t open(std::uint32_t name, std::uint64_t op);
    void close(std::int32_t index);
    /** Record an already-measured span (child of the open span). */
    void add(std::uint32_t name, std::uint64_t op, std::uint64_t start,
             std::uint64_t end);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span on a tracer; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, std::uint32_t name, std::uint64_t op)
        : t_(t), index_(t ? t->open(name, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
    std::int32_t index_;
};

/** Per-name totals over a set of tracers: durations and self times. */
struct SpanSummary
{
    Samples total;
    Samples self;
};
std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<const Tracer *> &tracers);

/** Write every span as TSV (name, op, parent, start, end; ns relative
 * to the earliest span) to @p path, at most @p cap lines. */
void writeSpans(const std::vector<const Tracer *> &tracers,
                const std::string &path, std::size_t cap);

// --- results ---------------------------------------------------------------

/** One named metric value with its unit and sample count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** Everything a workload run reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Why correctness failed (first few reasons). */
    std::vector<std::string> errors;
    std::map<std::string, Metric> metrics;
    /** Deterministic counters (identical across runs of one seed). */
    std::map<std::string, std::uint64_t> counters;
    /** Provenance lines (flags, policies, machine). */
    std::map<std::string, std::string> info;

    void fail(const std::string &why);
    void set(const std::string &name, double value,
             const std::string &unit, std::uint64_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }
    /** Copy every metric of @p other that this result lacks (or has
     * with no samples). */
    void fillFrom(const Result &other);
};

/** Serialize @p r as one JSON line. */
std::string resultJson(const Result &r);

/** Shared run parameters from the command line. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** rebudgetd binary (serve workloads). */
    std::string daemon;
    /** Scratch directory for this run (sockets, state, traces). */
    std::string workdir;
    /** Self-executable, for setup-only child processes. */
    std::string self;
};

/** Cold starts per untraced run; setup_s is their median. */
constexpr int kSetups = 3;

/** Median of @p v (v is copied). */
double median(std::vector<double> v);

/** Run `self --setup-only` for an in-process workload in a fresh child
 * process and return its reported setup seconds (negative on error). */
double childSetupSeconds(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
