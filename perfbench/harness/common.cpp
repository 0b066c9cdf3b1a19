#include "common.h"

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

extern char **environ;

namespace perfbench {

std::uint64_t
processCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t
procCpuNs(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return 0;
    // Fields after the parenthesized comm: state is field 3, utime 14,
    // stime 15 (1-based).
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return 0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    const long hz = ::sysconf(_SC_CLK_TCK);
    return (utime + stime) * (1000000000ull / static_cast<std::uint64_t>(
                                                  hz > 0 ? hz : 100));
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream s(line.substr(6));
            double kb = 0;
            s >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

bool
pinThread(pid_t tid, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::vector<int>
allowedCpus()
{
    // Captured once: pinning the calling thread later must not shrink
    // the set the harness hands out (or its children inherit).
    static const std::vector<int> cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        std::vector<int> v;
        if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
            }
        }
        return v;
    }();
    return cpus;
}

void
unpinSelf()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : allowedCpus())
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

std::vector<pid_t>
threadsOf(pid_t pid)
{
    std::vector<pid_t> tids;
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return tids;
    while (const dirent *e = ::readdir(d)) {
        if (e->d_name[0] >= '0' && e->d_name[0] <= '9')
            tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
    }
    ::closedir(d);
    std::sort(tids.begin(), tids.end());
    return tids;
}

namespace {

std::uint64_t
splitmix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

InputRng::InputRng(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = seed ^ 0x5bd1e9955bd1e995ull;
    state_ = splitmix(x) ^ a;
    x = state_;
    state_ = splitmix(x) ^ b;
    x = state_;
    state_ = splitmix(x);
}

std::uint64_t
InputRng::next()
{
    return splitmix(state_);
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size, std::uint64_t h)
{
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
Samples::quantileNs(double q) const
{
    if (v_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    // Nearest rank: the smallest sample with at least q of all samples
    // at or below it.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v_.size())));
    rank = std::clamp<std::size_t>(rank, 1, v_.size());
    return static_cast<double>(v_[rank - 1]);
}

double
Samples::sumNs() const
{
    double s = 0.0;
    for (const std::uint64_t x : v_)
        s += static_cast<double>(x);
    return s;
}

void
Windows::add(const Samples &lat, std::uint64_t ops, std::uint64_t cpu_ns)
{
    if (ops == 0)
        return;
    p50Us.push_back(lat.quantileNs(0.5) * 1e-3);
    cpuUsPerOp.push_back(static_cast<double>(cpu_ns) * 1e-3 /
                         static_cast<double>(ops));
}

namespace {

std::vector<std::string> &
spanNames()
{
    static std::vector<std::string> names;
    return names;
}

} // namespace

std::uint32_t
Tracer::nameId(const std::string &name)
{
    auto &names = spanNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

const std::string &
Tracer::nameOf(std::uint32_t id)
{
    return spanNames()[id];
}

std::int32_t
Tracer::open(std::uint32_t name, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = nowNs();
    spans_.push_back(s);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end = nowNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::add(std::uint32_t name, std::uint64_t op, std::uint64_t start,
            std::uint64_t end)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = start;
    s.end = end;
    spans_.push_back(s);
}

std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, SpanSummary> out;
    for (const Tracer *t : tracers) {
        const auto &spans = t->spans();
        // Children cover part of their parent; a span's self time is
        // its duration minus its direct children's durations (children
        // of one span never overlap: each tracer is one thread).
        std::vector<std::uint64_t> child(spans.size(), 0);
        for (const auto &s : spans) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            SpanSummary &sum = out[Tracer::nameOf(s.name)];
            const std::uint64_t d = s.end - s.start;
            sum.total.add(d);
            sum.self.add(d > child[i] ? d - child[i] : 0);
        }
    }
    return out;
}

void
writeSpans(const std::vector<const Tracer *> &tracers,
           const std::string &path, std::size_t cap)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    std::uint64_t origin = UINT64_MAX;
    std::size_t total = 0;
    for (const Tracer *t : tracers) {
        total += t->spans().size();
        for (const auto &s : t->spans())
            origin = std::min(origin, s.start);
    }
    std::fprintf(f, "# spans %zu written %zu\n# name\top\tparent\tstart_ns"
                    "\tend_ns\n",
                 total, std::min(total, cap));
    std::size_t written = 0;
    for (std::size_t ti = 0; ti < tracers.size(); ++ti) {
        for (const auto &s : tracers[ti]->spans()) {
            if (written++ >= cap)
                break;
            std::fprintf(f, "%s\t%llu\t%d\t%llu\t%llu\n",
                         Tracer::nameOf(s.name).c_str(),
                         static_cast<unsigned long long>(s.op), s.parent,
                         static_cast<unsigned long long>(s.start - origin),
                         static_cast<unsigned long long>(s.end - origin));
        }
    }
    std::fclose(f);
}

void
Result::fail(const std::string &why)
{
    correct = false;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
Result::fillFrom(const Result &other)
{
    for (const auto &[name, m] : other.metrics) {
        if (metrics.count(name) == 0 || metrics[name].samples == 0)
            metrics[name] = m;
    }
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
resultJson(const Result &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    out += "}, \"counters\": {";
    first = true;
    for (const auto &[name, v] : r.counters) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": " + std::to_string(v);
    }
    out += "}, \"info\": {";
    first = true;
    for (const auto &[name, v] : r.info) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": " + jsonString(v);
    }
    out += "}, \"errors\": [";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        out += (i ? ", " : "") + jsonString(r.errors[i]);
    out += "]}";
    return out;
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

double
childSetupSeconds(const RunConfig &cfg)
{
    const std::string out = cfg.workdir + "/setup-child.out";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    const std::string seed = std::to_string(cfg.seed);
    std::vector<const char *> argv = {cfg.self.c_str(),  "--setup-only",
                                      "--workload",      cfg.workload.c_str(),
                                      "--seed",          seed.c_str(),
                                      "--workdir",       cfg.workdir.c_str(),
                                      nullptr};
    pid_t pid = 0;
    unpinSelf();
    const int rc = ::posix_spawn(&pid, cfg.self.c_str(), &fa, nullptr,
                                 const_cast<char *const *>(argv.data()),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        return -1.0;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    std::ifstream in(out);
    double s = -1.0;
    std::string word;
    while (in >> word) {
        if (word == "setup_s")
            in >> s;
    }
    return s;
}

} // namespace perfbench
