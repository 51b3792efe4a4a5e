#include "quantum/evaluator.hpp"

#include "common/thread_pool.hpp"
#include "engine/backend_registry.hpp"
#include "engine/eval_spec.hpp"
#include "quantum/batched_state.hpp"

namespace redqaoa {

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
    if (params.size() < kBatchedPointsThreshold)
        return CutEvaluator::batchExpectation(params);
    std::vector<const QaoaParams *> pts(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        pts[i] = &params[i];
    std::vector<double> out(params.size());
    batchExpectationInto(pts, out);
    return out;
}

std::size_t
ExactEvaluator::batchExpectationInto(
    std::span<const QaoaParams *const> points, std::span<double> out) const
{
    const CutTable &table = *sim_.sharedTable();
    return batchedCutExpectations(table.codes, table.maxCode,
                                  sim_.numQubits(), points, out);
}

std::unique_ptr<CutEvaluator>
makeIdealEvaluator(const Graph &g, int p, int exact_qubit_limit)
{
    // Thin wrapper over the backend registry: the selection policy
    // itself lives in resolveBackend() (engine/eval_spec.hpp).
    return makeEvaluator(g, EvalSpec::ideal(p, exact_qubit_limit));
}

std::unique_ptr<CutEvaluator>
makeNoisyEvaluator(const Graph &g, const NoiseModel &nm, int trajectories,
                   std::uint64_t seed, int shots)
{
    // EvalSpec::noisy pins the Trajectory backend even under a noise
    // model whose channels are all trivial.
    return makeEvaluator(g,
                         EvalSpec::noisy(nm, 1, trajectories, seed, shots));
}

} // namespace redqaoa
