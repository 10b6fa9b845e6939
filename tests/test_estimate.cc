/**
 * @file
 * Unit tests for the static profile estimator (estimate/estimate.h):
 * Dempster-Shafer evidence algebra, heuristic firing on the hand-minimized
 * estimate corpus cases, and pinned golden `balign estimate --json`
 * reports (tests/corpus/estimate/<name>.est.json) so any drift in the
 * heuristics, the combiner or the propagation shows up as a readable
 * JSON diff. Regenerate with BALIGN_REGEN_ESTIMATE_GOLDEN=1 after an
 * intentional change.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fuzz.h"
#include "estimate/estimate.h"
#include "lint/lint.h"

using namespace balign;

namespace {

std::string
corpusPath(const std::string &name)
{
    return std::string(BALIGN_CORPUS_DIR) + "/" + name;
}

Program
loadCorpus(const std::string &name)
{
    const std::optional<Repro> repro = loadRepro(corpusPath(name));
    if (!repro.has_value())
        ADD_FAILURE() << "cannot load corpus file " << name;
    return repro.has_value() ? repro->program : Program();
}

/// The CLI's `balign estimate <file> --json` framing for one input.
std::string
estimateJsonFor(const std::string &name)
{
    Program program = loadCorpus(name);
    const EstimateReport report = estimateProfile(program);
    std::ostringstream os;
    os << "[\n";
    writeEstimateReportJson(report, program, os);
    os << "\n]\n";
    return os.str();
}

const BranchEstimate *
findBranch(const EstimateReport &report, ProcId proc, BlockId block)
{
    for (const BranchEstimate &branch : report.branches) {
        if (branch.proc == proc && branch.block == block)
            return &branch;
    }
    return nullptr;
}

bool
hasVote(const BranchEstimate &branch, const std::string &heuristic)
{
    for (const HeuristicVote &vote : branch.votes) {
        if (heuristic == vote.heuristic)
            return true;
    }
    return false;
}

}  // namespace

TEST(CombineEvidence, NeutralElementIsHalf)
{
    for (const double p : {0.02, 0.2, 0.5, 0.62, 0.88, 0.98}) {
        EXPECT_NEAR(combineEvidence(0.5, p), p, 1e-12);
        EXPECT_NEAR(combineEvidence(p, 0.5), p, 1e-12);
    }
}

TEST(CombineEvidence, SymmetricAndAssociative)
{
    const double a = 0.8, b = 0.3, c = 0.62;
    EXPECT_NEAR(combineEvidence(a, b), combineEvidence(b, a), 1e-12);
    EXPECT_NEAR(combineEvidence(combineEvidence(a, b), c),
                combineEvidence(a, combineEvidence(b, c)), 1e-12);
}

TEST(CombineEvidence, AgreementAmplifiesConflictAttenuates)
{
    // Two agreeing pieces of evidence are stronger than either alone.
    EXPECT_GT(combineEvidence(0.8, 0.8), 0.8);
    EXPECT_LT(combineEvidence(0.2, 0.2), 0.2);
    // Perfectly opposed evidence cancels back to neutral.
    EXPECT_NEAR(combineEvidence(0.8, 0.2), 0.5, 1e-12);
}

TEST(EstimateCorpus, IrreducibleCaseTakesFallback)
{
    Program program = loadCorpus("est-irreducible.balign");
    const EstimateReport report = estimateProfile(program);

    ASSERT_EQ(report.procs.size(), 1u);
    EXPECT_TRUE(report.procs[0].irreducibleFallback)
        << "the 1<->2 two-entry cycle must defeat closed-form propagation";
    EXPECT_EQ(program.profileProvenance(), ProfileProvenance::Estimated);

    // The fallback still synthesizes a conserving profile: the est.* and
    // prof.* rules must hold on the estimated program.
    LintRunOptions run;
    const LintReport lint = lintProgram(program, run);
    EXPECT_EQ(lint.errors(), 0u)
        << formatLintReport(lint, "est-irreducible");
    EXPECT_EQ(lint.profileProvenance, "estimated");
}

TEST(EstimateCorpus, TieCaseCombinesOpposingHeuristics)
{
    Program program = loadCorpus("est-tie.balign");
    const EstimateReport report = estimateProfile(program);

    ASSERT_EQ(report.conditionals, 1u);
    const BranchEstimate *branch = findBranch(report, 0, 2);
    ASSERT_NE(branch, nullptr);
    ASSERT_EQ(branch->votes.size(), 2u);
    EXPECT_TRUE(hasVote(*branch, "loop-exit"));
    EXPECT_TRUE(hasVote(*branch, "call"));

    // D-S of the conflict: 0.2 (stay in loop) vs 0.78 (avoid the call)
    // = 0.156 / (0.156 + 0.176) — just on the fall side of neutral.
    EXPECT_NEAR(branch->takenProb, 0.2 * 0.78 / (0.2 * 0.78 + 0.8 * 0.22),
                1e-9);
    EXPECT_LT(branch->takenProb, 0.5);
    EXPECT_GT(branch->takenProb, 0.4);
}

TEST(EstimateCorpus, PatternMetadataDrivesTightLoop)
{
    Program program = loadCorpus("tight-loop.balign");
    const EstimateReport report = estimateProfile(program);

    // Block 0 carries `pattern 4 7`: 3 taken outcomes in a period of 4.
    const BranchEstimate *branch = findBranch(report, 0, 0);
    ASSERT_NE(branch, nullptr);
    EXPECT_TRUE(hasVote(*branch, "pattern"));
    EXPECT_TRUE(hasVote(*branch, "loop-branch"));
    EXPECT_GT(branch->takenProb, 0.5)
        << "self-loop back edge plus a 3/4 pattern must predict taken";
}

TEST(EstimateCorpus, GoldenJsonReportsMatch)
{
    const bool regen =
        std::getenv("BALIGN_REGEN_ESTIMATE_GOLDEN") != nullptr;
    for (const std::string name : {"est-irreducible", "est-tie"}) {
        const std::string json = estimateJsonFor(name + ".balign");
        const std::string golden_path =
            std::string(BALIGN_CORPUS_DIR) + "/estimate/" + name +
            ".est.json";
        if (regen) {
            std::filesystem::create_directories(
                std::filesystem::path(golden_path).parent_path());
            std::ofstream out(golden_path);
            out << json;
            continue;
        }
        std::ifstream in(golden_path);
        ASSERT_TRUE(in.good())
            << "missing golden " << golden_path
            << " (regenerate with BALIGN_REGEN_ESTIMATE_GOLDEN=1)";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(json, golden.str())
            << "estimate report for " << name
            << " drifted from its golden";
    }
}

TEST(EstimateJson, ControlCharactersInNamesAreEscaped)
{
    // A control byte in a name must reach the report as a JSON escape,
    // never raw: the report has to stay parseable by any JSON reader.
    Program program = loadCorpus("tight-loop.balign");
    program.setName("tight\x01loop");
    const EstimateReport report = estimateProfile(program);
    std::ostringstream os;
    writeEstimateReportJson(report, program, os);
    EXPECT_NE(os.str().find("\"program\":\"tight\\u0001loop\""),
              std::string::npos)
        << os.str();
    EXPECT_EQ(os.str().find('\x01'), std::string::npos);
}

// ---------------------------------------------------------------------
// Fuzzer estimate gate.

TEST(EstimateGate, CleanOnCorpusUnderEveryAlignerAndObjective)
{
    DiffOptions options;
    options.kinds = allAlignerKindsExtended();
    options.objectives = allObjectiveKinds();
    for (const std::string name : {"est-irreducible", "est-tie"}) {
        const std::optional<Divergence> finding =
            estimateGateCheck(loadCorpus(name + ".balign"), options);
        EXPECT_FALSE(finding.has_value())
            << name << "\n" << formatDivergence(*finding);
    }
}
