/**
 * @file
 * Benchmark-side span recorder.
 *
 * Spans are taken only in the benchmark's own code, around each call
 * into a layer's public functions; nothing inside the library is
 * instrumented. A span records its name, start and end (seconds on
 * the steady clock since the tracer was created), the span that was
 * open around it, and the iteration it belongs to. Spans stay in
 * memory until the run ends and writeJson() dumps them. A disabled
 * tracer records nothing, so the untraced (end-to-end) runs pay one
 * branch per span.
 */

#ifndef SPIMBENCH_TRACE_HH_
#define SPIMBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spimbench
{

/** Seconds on the steady clock (the benchmark's only time base). */
inline double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name;
    double start;
    double end;
    int parent; //!< index of the enclosing span, -1 at top level
    std::int64_t iteration; //!< -1 outside the measured loop
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), t0_(nowSeconds())
    {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    void setIteration(std::int64_t it) { iteration_ = it; }

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const char *name);
    void end(int id);

    struct SelfTime
    {
        double seconds = 0.0;
        unsigned calls = 0;
    };

    /** Self time summed per span name: each span's duration minus
     * the time its direct children cover. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Write every span as JSON; false when the file can't be
     * written. */
    bool writeJson(const std::string &path,
                   const std::string &header) const;

  private:
    bool enabled_;
    double t0_;
    std::int64_t iteration_ = -1;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name) : t_(t), id_(t.begin(name))
    {}
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace spimbench

#endif // SPIMBENCH_TRACE_HH_
