/**
 * @file
 * Text serialization of programs (CFG + profile), enabling the command
 * line tools and interchange of profiled program models.
 *
 * Format (line oriented, '#' comments):
 *
 *   balign-program v1
 *   program <name>
 *   main <proc-id>
 *   proc <id> <name> entry <block-id>
 *   block <id> <instrs> <terminator> [pattern <len> <mask>]
 *         [corr <block-id> <invert>]
 *   call <block-id> <offset> <callee-proc>
 *   edge <src> <dst> <kind> <weight> <bias>
 *   endproc
 *
 * Terminators: fall | cond | uncond | indirect | return.
 * Edge kinds: fall | taken | other.
 * Block/call/edge lines belong to the most recent proc line; blocks must
 * appear in id order (ids are dense). Bias is a decimal double.
 */

#ifndef BALIGN_CFG_SERIALIZE_H
#define BALIGN_CFG_SERIALIZE_H

#include <iosfwd>
#include <optional>
#include <string>

#include "cfg/program.h"

namespace balign {

/// Writes @p program (including profile weights and biases) to @p os.
void writeProgram(const Program &program, std::ostream &os);

/// Serializes to a string.
std::string programToString(const Program &program);

/// Parse outcome: the program, or an error with a 1-based line number.
struct ParseResult
{
    std::optional<Program> program;
    std::string error;
    std::size_t errorLine = 0;

    bool ok() const { return program.has_value(); }
};

/// Parses a program from @p is. The result validates before returning;
/// structural problems are reported as parse errors.
ParseResult readProgram(std::istream &is);

/// Parses from a string.
ParseResult programFromString(const std::string &text);

/// File helpers. saveProgram returns false when @p path cannot be opened
/// or written; loadProgram reports open and parse errors in-band.
bool saveProgram(const Program &program, const std::string &path);
ParseResult loadProgram(const std::string &path);

}  // namespace balign

#endif  // BALIGN_CFG_SERIALIZE_H
