#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

}  // namespace

double
now()
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - kOrigin;
    return elapsed.count();
}

Spans &
spans()
{
    static Spans recorder;
    return recorder;
}

std::map<std::string, double>
Spans::selfTimes(std::size_t first) const
{
    std::vector<double> self(all.size(), 0.0);
    for (std::size_t i = first; i < all.size(); ++i)
        self[i] += all[i].end - all[i].start;
    for (std::size_t i = first; i < all.size(); ++i) {
        const int parent = all[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) >= first)
            self[static_cast<std::size_t>(parent)] -=
                all[i].end - all[i].start;
    }
    std::map<std::string, double> totals;
    for (std::size_t i = first; i < all.size(); ++i)
        totals[all[i].name] += self[i];
    return totals;
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                     "\"end\":%.9f,\"parent\":%d,\"program\":%d}%s\n",
                     i, span.name, span.start, span.end, span.parent,
                     span.program, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
}

Scope::Scope(const char *name)
{
    Spans &rec = spans();
    if (!rec.enabled)
        return;
    index_ = static_cast<int>(rec.all.size());
    rec.all.push_back({name, now(), 0.0, rec.current, rec.program});
    rec.current = index_;
}

Scope::~Scope()
{
    if (index_ < 0)
        return;
    Spans &rec = spans();
    Span &span = rec.all[static_cast<std::size_t>(index_)];
    span.end = now();
    rec.current = span.parent;
}

ProgramScope::ProgramScope(int program) : saved_(spans().program)
{
    spans().program = program;
}

ProgramScope::~ProgramScope()
{
    spans().program = saved_;
}

}  // namespace perfbench
