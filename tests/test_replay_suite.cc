/**
 * @file
 * The `ctest -L replay` group: the batched replay engine against the
 * independent oracle over the full 24-program benchmark suite and the
 * fuzz corpus.
 *
 * Every suite program is prepared with a reduced trace budget and run
 * through runConfigs (the batched engine) over the full configuration
 * matrix (8 architectures x 5 aligners under table-cost plus the
 * ExtTSP-priced guided aligners); the oracle (check/oracle.h) then
 * replays the same recorded trace over each cell's layout. Every
 * EvalResult counter of every cell must be equal; so must origInstrs and
 * the derived relative CPI. Corpus repros (including shrunk fuzzer
 * findings) get the same treatment, so any program shape that ever broke
 * the pipeline also pins the batched engine. New engine divergences found
 * by the fuzzer land here automatically as DivergenceKind::Batch repro
 * files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "replay_util.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kSuiteBudget = 100'000;

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(BALIGN_CORPUS_DIR)) {
        if (entry.path().extension() == ".balign")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

class ReplaySuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(ReplaySuite, EnginesByteIdentical)
{
    ProgramSpec spec = suiteSpec(GetParam());
    spec.traceInstrs = kSuiteBudget;
    test::expectBatchedMatchesOracle(prepareProgram(spec), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Suite24, ReplaySuite, [] {
    std::vector<std::string> names;
    for (const ProgramSpec &spec : benchmarkSuite())
        names.push_back(spec.name);
    return testing::ValuesIn(names);
}(), [](const testing::TestParamInfo<std::string> &param) {
    std::string name = param.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
});

TEST(ReplayCorpus, EnginesByteIdenticalOnEveryRepro)
{
    const std::vector<std::string> files = corpusFiles();
    ASSERT_GE(files.size(), 3u);
    for (const std::string &path : files) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        const PreparedProgram prepared =
            prepareProgram(repro->program, repro->walk);
        test::expectBatchedMatchesOracle(
            prepared, std::filesystem::path(path).stem().string());
    }
}
