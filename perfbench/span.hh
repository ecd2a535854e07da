/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call the benchmark makes into a layer of the program:
 * name, layer, start, end, parent span and, for serve requests, the
 * request id its spans share. Spans stay in memory and are written as
 * Chrome trace_event JSON when the run ends, so recording costs one
 * clock read and one vector push per boundary. With tracing off a
 * Span reads no clock and records nothing.
 */

#ifndef PERFBENCH_SPAN_HH
#define PERFBENCH_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::string layer;
        std::string req;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        unsigned tid = 0;
        double startUs = 0.0;
        double endUs = 0.0;
        std::vector<std::pair<std::string, std::string>> args;  // raw JSON
    };

    explicit Tracer(bool on) : on_(on) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    std::uint64_t nextId() { return ++lastId_; }

    void
    add(Record r)
    {
        std::lock_guard<std::mutex> lk(mu_);
        records_.push_back(std::move(r));
    }

    /** Small per-thread index, stable for the thread's lifetime. */
    static unsigned
    threadIndex()
    {
        static std::atomic<unsigned> next{0};
        thread_local const unsigned idx = next++;
        return idx;
    }

    /** Innermost open span of the calling thread (0 = none). */
    static std::vector<std::uint64_t> &
    stack()
    {
        thread_local std::vector<std::uint64_t> s;
        return s;
    }

    /** Chrome trace_event JSON ("X" complete events, µs). */
    void
    write(std::ostream &os) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        bool first = true;
        for (const Record &r : records_) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << "{\"name\":\"" << r.name << "\",\"cat\":\"" << r.layer
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
               << ",\"ts\":" << fixed(r.startUs)
               << ",\"dur\":" << fixed(r.endUs - r.startUs)
               << ",\"args\":{\"id\":" << r.id
               << ",\"parent\":" << r.parent;
            if (!r.req.empty())
                os << ",\"req\":\"" << r.req << "\"";
            for (const auto &[k, v] : r.args)
                os << ",\"" << k << "\":" << v;
            os << "}}";
        }
        os << "\n]}\n";
    }

  private:
    static std::string
    fixed(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", v);
        return buf;
    }

    const bool on_;
    const std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> lastId_{0};
    mutable std::mutex mu_;
    std::vector<Record> records_;
};

/**
 * RAII span. The parent is the calling thread's innermost open span
 * unless given explicitly (a client thread working for a span opened
 * on the main thread).
 */
class Span
{
  public:
    Span(Tracer &t, const char *name, const char *layer,
         std::string req = {}, std::uint64_t parent = kInnermost)
        : t_(t)
    {
        if (!t_.on())
            return;
        rec_.name = name;
        rec_.layer = layer;
        rec_.req = std::move(req);
        rec_.id = t_.nextId();
        auto &st = Tracer::stack();
        rec_.parent = parent != kInnermost ? parent
                                           : (st.empty() ? 0 : st.back());
        rec_.tid = Tracer::threadIndex();
        st.push_back(rec_.id);
        rec_.startUs = t_.nowUs();
    }

    ~Span()
    {
        if (!t_.on())
            return;
        rec_.endUs = t_.nowUs();
        auto &st = Tracer::stack();
        if (!st.empty() && st.back() == rec_.id)
            st.pop_back();
        t_.add(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

    void
    arg(const char *key, double v)
    {
        if (t_.on())
            rec_.args.emplace_back(key, num(v));
    }

    void
    arg(const char *key, const std::string &v)
    {
        if (t_.on())
            rec_.args.emplace_back(key, "\"" + v + "\"");
    }

    static constexpr std::uint64_t kInnermost = ~std::uint64_t{0};

  private:
    static std::string
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    Tracer &t_;
    Tracer::Record rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_HH
