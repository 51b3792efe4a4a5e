#include "quantum/evaluator.hpp"

#include "common/thread_pool.hpp"
#include "quantum/batched_kernels.hpp"

namespace redqaoa {

namespace {

/** Points per lane group, the size at which a batch sweeps lanes. */
constexpr std::size_t kLanes =
    static_cast<std::size_t>(batched::kBatchLanes);

} // namespace

std::vector<double>
CutEvaluator::batchExpectation(std::span<const QaoaParams> params)
{
    std::vector<double> out(params.size());
    if (concurrentSafe()) {
        parallelFor(params.size(),
                    [&](std::size_t i) { out[i] = expectation(params[i]); });
    } else {
        for (std::size_t i = 0; i < params.size(); ++i)
            out[i] = expectation(params[i]);
    }
    return out;
}

std::vector<double>
ExactEvaluator::batchExpectation(std::span<const QaoaParams> params)
{
    if (params.size() < kLanes)
        return CutEvaluator::batchExpectation(params);
    std::vector<const QaoaParams *> pts(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        pts[i] = &params[i];
    std::vector<double> out(params.size());
    batchExpectationInto(pts, out);
    return out;
}

std::vector<LaneGroup>
ExactEvaluator::lanePlan(std::span<const QaoaParams *const> points) const
{
    if (points.size() < kLanes)
        return {};
    return planLaneGroups(points);
}

void
ExactEvaluator::sweepLanes(const LaneGroup &group,
                           std::span<double> out) const
{
    const CutTable &table = *sim_.sharedTable();
    sweepLaneGroup(table.codes, table.maxCode, sim_.numQubits(), group,
                   out);
}

std::size_t
ExactEvaluator::batchExpectationInto(
    std::span<const QaoaParams *const> points, std::span<double> out) const
{
    if (points.size() < kLanes) {
        for (std::size_t i = 0; i < points.size(); ++i)
            out[i] = sim_.expectation(*points[i]);
        return 0;
    }
    const CutTable &table = *sim_.sharedTable();
    return batchedCutExpectations(table.codes, table.maxCode,
                                  sim_.numQubits(), points, out);
}

} // namespace redqaoa
