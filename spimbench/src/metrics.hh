/**
 * @file
 * Named metrics with units, and the order statistics the benchmark
 * reports timings with.
 */

#ifndef SPIMBENCH_METRICS_HH_
#define SPIMBENCH_METRICS_HH_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace spimbench
{

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metrics in insertion order; setting a name again replaces it. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (Metric &m : all_)
            if (m.name == name) {
                m = {name, value, unit};
                return;
            }
        all_.push_back({name, value, unit});
    }

    const std::vector<Metric> &all() const { return all_; }

  private:
    std::vector<Metric> all_;
};

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The tail the benchmark reports: the highest percentile with at
 * least ten samples beyond it, i.e. the 11th-largest sample, at
 * percentile 100 * (n - 10) / n (nearest rank). Below 20 samples
 * that percentile falls under the median, and the median
 * (percentile 50) stands in.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 50.0;
};

inline Tail
tail(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n >= 20) {
        t.value = v[n - 11];
        t.percentile = 100.0 * double(n - 10) / double(n);
    } else {
        t.value = median(v);
    }
    return t;
}

} // namespace spimbench

#endif // SPIMBENCH_METRICS_HH_
