/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span marks one call from the benchmark into a balign layer: its name
 * ("<layer>.<step>", e.g. "core.try15"), start and end on the steady
 * clock, the span that encloses it, and the suite program it worked on.
 * Spans are kept in memory and written out once, when the benchmark
 * ends. With recording off (the untraced, measured passes) a Scope reads
 * one flag and does nothing else.
 *
 * The benchmark is single-threaded, so one global recorder with a
 * "current span" cursor gives every span its parent.
 */

#ifndef BALIGN_PERFBENCH_SPANS_H
#define BALIGN_PERFBENCH_SPANS_H

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the recorder was created.
double now();

struct Span
{
    const char *name = "";  ///< static string, "<layer>.<step>"
    double start = 0.0;
    double end = 0.0;
    int parent = -1;   ///< index into Spans::all, -1 for a root
    int program = -1;  ///< suite index of the program, -1 when none
};

class Spans
{
  public:
    bool enabled = false;
    std::vector<Span> all;
    int current = -1;
    int program = -1;

    /// Self time (duration minus the time its child spans cover) summed
    /// per span name, over spans with index >= @p first.
    std::map<std::string, double> selfTimes(std::size_t first = 0) const;

    /// Writes every span as a JSON array; returns false on I/O failure.
    bool write(const std::string &path) const;
};

/// The benchmark's recorder.
Spans &spans();

/// RAII span around one layer call; inert while recording is off.
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int index_ = -1;
};

/// Sets the program id stamped on spans opened while it is alive.
class ProgramScope
{
  public:
    explicit ProgramScope(int program);
    ~ProgramScope();
    ProgramScope(const ProgramScope &) = delete;
    ProgramScope &operator=(const ProgramScope &) = delete;

  private:
    int saved_;
};

}  // namespace perfbench

#endif  // BALIGN_PERFBENCH_SPANS_H
