#include "trace.hh"

#include <cstdio>

namespace spimbench
{

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        {name, nowSeconds() - t0_, 0.0, parent, iteration_});
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = nowSeconds() - t0_;
    open_.pop_back();
}

std::map<std::string, Tracer::SelfTime>
Tracer::selfTimes() const
{
    // Spans nest strictly on the benchmark thread, so the children
    // of one span are disjoint and their durations simply add up.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[std::size_t(s.parent)] += s.end - s.start;
    std::map<std::string, SelfTime> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SelfTime &t = self[spans_[i].name];
        t.seconds += spans_[i].end - spans_[i].start - child[i];
        t.calls++;
    }
    return self;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"header\": %s,\n \"spans\": [", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                     "\"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"parent\": %d, \"iteration\": %lld}",
                     i ? "," : "", i, s.name, s.start, s.end, s.parent,
                     static_cast<long long>(s.iteration));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace spimbench
