/**
 * @file
 * The master correctness check: every workload must produce its
 * golden-model output on the scalar machine and on multiscalar
 * machines of several shapes. A parameterized sweep covers
 * {workload} x {units} x {issue width} x {order}, and a second sweep
 * re-checks every workload in both modes at a scaled-up input size —
 * the golden model recomputes the expected output per scale, so
 * output regressions are caught independently of cycle regressions
 * (the cycle side is pinned by test_golden_cycles).
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

struct Shape
{
    unsigned units;     // 0 = scalar baseline
    unsigned width;
    bool ooo;
};

std::string
shapeName(const Shape &s)
{
    std::string name = s.units == 0 ? "scalar"
                                    : std::to_string(s.units) + "unit";
    name += '_';
    name += std::to_string(s.width);
    name += "way";
    name += s.ooo ? "_ooo" : "_ino";
    return name;
}

class WorkloadCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, Shape>>
{
};

TEST_P(WorkloadCorrectness, MatchesGoldenModel)
{
    const auto &[name, shape] = GetParam();
    workloads::Workload w = workloads::get(name);
    RunSpec spec;
    spec.multiscalar = shape.units != 0;
    spec.ms.numUnits = shape.units ? shape.units : 1;
    spec.ms.pu.issueWidth = shape.width;
    spec.ms.pu.outOfOrder = shape.ooo;
    spec.scalar.pu.issueWidth = shape.width;
    spec.scalar.pu.outOfOrder = shape.ooo;
    // runWorkload throws if the output mismatches the golden model.
    RunResult r = runWorkload(w, spec);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.output, w.expected);
}

const Shape kShapes[] = {
    {0, 1, false}, {0, 2, true},
    {2, 1, false},
    {4, 1, false}, {4, 2, true},
    {8, 1, false}, {8, 2, false}, {8, 2, true},
};

std::vector<std::tuple<std::string, Shape>>
allCases()
{
    std::vector<std::tuple<std::string, Shape>> cases;
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        for (const Shape &s : kShapes)
            cases.emplace_back(name, s);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadCorrectness, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, Shape>> &info) {
        return std::get<0>(info.param) + "_" +
               shapeName(std::get<1>(info.param));
    });

/**
 * Output correctness at a non-default input scale: every workload's
 * golden model recomputes the expected output for the scaled input,
 * so these runs verify dataflow (not timing) on inputs none of the
 * other suites touch. Scale 2 is within every workload's supported
 * range (wc caps at 2, the rest allow more).
 */
class WorkloadOutputAtScale
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(WorkloadOutputAtScale, MatchesGoldenModelScaled)
{
    const auto &[name, multiscalar] = GetParam();
    workloads::Workload w = workloads::get(name, 2);
    RunSpec spec;
    spec.multiscalar = multiscalar;
    // runWorkload throws if the output mismatches the golden model.
    RunResult r = runWorkload(w, spec);
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.hitMaxCycles);
    EXPECT_EQ(r.output, w.expected);
    // The exact-accounting invariant holds at every scale.
    EXPECT_EQ(r.accounting.sum(), r.cycles * r.accounting.numUnits);
}

std::vector<std::tuple<std::string, bool>>
scaledCases()
{
    std::vector<std::tuple<std::string, bool>> cases;
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        cases.emplace_back(name, false);
        cases.emplace_back(name, true);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllScaled, WorkloadOutputAtScale,
    ::testing::ValuesIn(scaledCases()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>
           &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_ms" : "_scalar");
    });

} // namespace
} // namespace msim
