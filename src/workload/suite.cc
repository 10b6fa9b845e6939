#include "workload/suite.h"

#include "support/log.h"

namespace balign {

namespace {

/// Baseline for floating-point models: large blocks, deep loop nests with
/// very hot, highly biased inner loops, few calls.
ProgramSpec
fpBase(const char *name, std::uint64_t seed)
{
    ProgramSpec spec;
    spec.name = name;
    spec.group = "SPECfp92";
    spec.seed = seed;
    spec.numProcs = 10;
    spec.minBlocksPerProc = 5;
    spec.maxBlocksPerProc = 26;
    spec.avgBlockInstrs = 14;
    spec.maxLoopDepth = 3;
    spec.loopProb = 0.42;
    spec.whileLoopProb = 0.10;
    spec.tightLoopProb = 0.35;
    spec.loopContinueProb = 0.96;
    spec.loopContinueJitter = 0.03;
    spec.fixedTripProb = 0.75;
    spec.minTripCount = 8;
    spec.maxTripCount = 32;
    spec.patternedIfProb = 0.05;
    spec.correlatedIfProb = 0.10;
    spec.ifProb = 0.16;
    spec.elseProb = 0.30;
    spec.ifSkewHot = 0.88;
    spec.balancedIfProb = 0.10;
    spec.switchProb = 0.0;
    spec.callProb = 0.03;
    spec.earlyReturnProb = 0.02;
    return spec;
}

/// Baseline for integer models: small blocks, dense and flatter branching,
/// more calls.
ProgramSpec
intBase(const char *name, std::uint64_t seed)
{
    ProgramSpec spec;
    spec.name = name;
    spec.group = "SPECint92";
    spec.seed = seed;
    spec.numProcs = 22;
    spec.minBlocksPerProc = 8;
    spec.maxBlocksPerProc = 60;
    spec.avgBlockInstrs = 5;
    spec.maxLoopDepth = 2;
    spec.loopProb = 0.24;
    spec.whileLoopProb = 0.30;
    spec.tightLoopProb = 0.12;
    spec.loopContinueProb = 0.82;
    spec.loopContinueJitter = 0.12;
    spec.fixedTripProb = 0.50;
    spec.minTripCount = 3;
    spec.maxTripCount = 16;
    spec.patternedIfProb = 0.18;
    spec.correlatedIfProb = 0.35;
    spec.ifProb = 0.40;
    spec.elseProb = 0.45;
    spec.ifSkewHot = 0.78;
    spec.balancedIfProb = 0.15;
    spec.hotSideFallProb = 0.40;
    spec.switchProb = 0.02;
    spec.callProb = 0.10;
    spec.earlyReturnProb = 0.06;
    return spec;
}

/// Baseline for the C++/text "Other" programs: integer-like but with more
/// indirect jumps (virtual dispatch) and calls.
ProgramSpec
otherBase(const char *name, std::uint64_t seed)
{
    ProgramSpec spec = intBase(name, seed);
    spec.group = "Other";
    spec.numProcs = 30;
    spec.switchProb = 0.05;
    spec.callProb = 0.14;
    spec.earlyReturnProb = 0.08;
    return spec;
}

}  // namespace

std::vector<ProgramSpec>
benchmarkSuite()
{
    std::vector<ProgramSpec> suite;

    // ---- SPECfp92 ----------------------------------------------------
    {
        // alvinn: a neural-net trainer; nearly all time in two tiny
        // single-block inner loops (paper Fig. 2).
        ProgramSpec s = fpBase("alvinn", 101);
        s.numProcs = 6;
        s.minBlocksPerProc = 4;
        s.maxBlocksPerProc = 10;
        s.avgBlockInstrs = 11;
        s.maxLoopDepth = 2;
        s.loopProb = 0.55;
        s.tightLoopProb = 0.80;
        s.loopContinueProb = 0.985;
        s.loopContinueJitter = 0.01;
        s.ifProb = 0.06;
        suite.push_back(s);
    }
    {
        // doduc: Monte-Carlo simulation; branchier than most FP codes.
        ProgramSpec s = fpBase("doduc", 102);
        s.numProcs = 16;
        s.maxBlocksPerProc = 44;
        s.avgBlockInstrs = 8;
        s.ifProb = 0.30;
        s.loopContinueProb = 0.90;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("ear", 103);
        s.numProcs = 8;
        s.loopProb = 0.50;
        s.loopContinueProb = 0.97;
        suite.push_back(s);
    }
    {
        // fpppp: enormous straight-line blocks, almost no branches.
        ProgramSpec s = fpBase("fpppp", 104);
        s.numProcs = 6;
        s.avgBlockInstrs = 24;
        s.loopProb = 0.30;
        s.ifProb = 0.08;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("hydro2d", 105);
        s.numProcs = 14;
        s.loopProb = 0.48;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("mdljsp2", 106);
        s.numProcs = 12;
        s.loopContinueProb = 0.93;
        s.ifProb = 0.22;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("nasa7", 107);
        s.numProcs = 12;
        s.loopProb = 0.50;
        s.maxLoopDepth = 3;
        suite.push_back(s);
    }
    {
        // ora: tiny kernel, one dominant loop.
        ProgramSpec s = fpBase("ora", 108);
        s.numProcs = 4;
        s.minBlocksPerProc = 4;
        s.maxBlocksPerProc = 14;
        s.loopProb = 0.5;
        s.loopContinueProb = 0.98;
        suite.push_back(s);
    }
    {
        // spice: FP code with integer-like control flow.
        ProgramSpec s = fpBase("spice", 109);
        s.numProcs = 20;
        s.maxBlocksPerProc = 70;
        s.avgBlockInstrs = 7;
        s.ifProb = 0.34;
        s.loopContinueProb = 0.88;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("su2cor", 110);
        s.numProcs = 12;
        suite.push_back(s);
    }
    {
        // swm256: stencil loops, huge iteration counts.
        ProgramSpec s = fpBase("swm256", 111);
        s.numProcs = 6;
        s.loopProb = 0.55;
        s.loopContinueProb = 0.99;
        s.loopContinueJitter = 0.005;
        s.ifProb = 0.05;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("tomcatv", 112);
        s.numProcs = 3;
        s.loopProb = 0.55;
        s.loopContinueProb = 0.985;
        s.ifProb = 0.06;
        suite.push_back(s);
    }
    {
        ProgramSpec s = fpBase("wave5", 113);
        s.numProcs = 14;
        s.loopProb = 0.46;
        suite.push_back(s);
    }

    // ---- SPECint92 ---------------------------------------------------
    {
        // compress: one hot loop with data-dependent (balanced) branches.
        ProgramSpec s = intBase("compress", 201);
        s.numProcs = 8;
        s.minBlocksPerProc = 6;
        s.maxBlocksPerProc = 30;
        s.balancedIfProb = 0.45;
        s.loopContinueProb = 0.90;
        suite.push_back(s);
    }
    {
        // eqntott: dominated by a few very hot comparison branches.
        ProgramSpec s = intBase("eqntott", 202);
        s.numProcs = 10;
        s.loopProb = 0.34;
        s.loopContinueProb = 0.92;
        s.ifSkewHot = 0.85;
        s.balancedIfProb = 0.15;
        suite.push_back(s);
    }
    {
        ProgramSpec s = intBase("espresso", 203);
        s.numProcs = 24;
        s.maxBlocksPerProc = 60;
        suite.push_back(s);
    }
    {
        // gcc: very many procedures and blocks, flat site distribution.
        ProgramSpec s = intBase("gcc", 204);
        s.numProcs = 48;
        s.minBlocksPerProc = 10;
        s.maxBlocksPerProc = 120;
        s.switchProb = 0.04;
        s.balancedIfProb = 0.35;
        s.loopContinueProb = 0.75;
        suite.push_back(s);
    }
    {
        // li: lisp interpreter; call/return heavy.
        ProgramSpec s = intBase("li", 205);
        s.numProcs = 26;
        s.callProb = 0.16;
        s.earlyReturnProb = 0.10;
        s.loopProb = 0.18;
        suite.push_back(s);
    }
    {
        ProgramSpec s = intBase("sc", 206);
        s.numProcs = 20;
        s.switchProb = 0.03;
        suite.push_back(s);
    }

    // ---- Other (C++ / text) -------------------------------------------
    {
        ProgramSpec s = otherBase("cfront", 301);
        s.numProcs = 40;
        s.maxBlocksPerProc = 80;
        suite.push_back(s);
    }
    {
        ProgramSpec s = otherBase("db++", 302);
        s.numProcs = 18;
        s.callProb = 0.18;
        suite.push_back(s);
    }
    {
        ProgramSpec s = otherBase("groff", 303);
        s.numProcs = 34;
        suite.push_back(s);
    }
    {
        ProgramSpec s = otherBase("idl", 304);
        s.numProcs = 26;
        s.switchProb = 0.07;
        suite.push_back(s);
    }
    {
        // tex: text formatter; big procedures, many switches.
        ProgramSpec s = otherBase("tex", 305);
        s.numProcs = 24;
        s.maxBlocksPerProc = 100;
        s.switchProb = 0.05;
        s.callProb = 0.10;
        suite.push_back(s);
    }

    return suite;
}

std::vector<ProgramSpec>
figure4Suite()
{
    const char *names[] = {"alvinn", "ear",      "compress", "eqntott",
                           "espresso", "gcc",    "li",       "sc"};
    std::vector<ProgramSpec> result;
    for (const char *name : names)
        result.push_back(suiteSpec(name));
    return result;
}

std::optional<ProgramSpec>
findSuiteSpec(const std::string &name)
{
    for (const auto &spec : benchmarkSuite()) {
        if (spec.name == name)
            return spec;
    }
    return std::nullopt;
}

ProgramSpec
suiteSpec(const std::string &name)
{
    std::optional<ProgramSpec> spec = findSuiteSpec(name);
    if (!spec.has_value())
        fatal("unknown suite program '%s'", name.c_str());
    return std::move(*spec);
}

}  // namespace balign
