#include "opt/optimizer.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace redqaoa {

OptRun::OptRun(bool first_value_is_best)
    : firstValueIsBest_(first_value_is_best)
{
    result_.value = std::numeric_limits<double>::infinity();
}

void
OptRun::tell(double value)
{
    assert(!finished_);
    ++result_.evaluations;
    if ((firstValueIsBest_ && result_.trace.empty()) ||
        value < result_.value) {
        result_.value = value;
        result_.x = point_;
    }
    result_.trace.push_back(result_.value);
    result_.iterates.push_back(point_);
    advance(value);
}

OptResult
Optimizer::minimize(const Objective &f, const std::vector<double> &x0) const
{
    std::unique_ptr<OptRun> run = start(x0);
    while (const std::vector<double> *x = run->ask())
        run->tell(f(*x));
    return run->takeResult();
}

std::vector<OptResult>
multiRestart(const Optimizer &optimizer, const Objective &f, int restarts,
             const std::function<std::vector<double>(Rng &)> &sampler,
             Rng &rng)
{
    std::vector<OptResult> runs;
    runs.reserve(static_cast<std::size_t>(restarts));
    for (int r = 0; r < restarts; ++r)
        runs.push_back(optimizer.minimize(f, sampler(rng)));
    return runs;
}

std::vector<OptResult>
multiRestart(const Optimizer &optimizer, const BatchObjective &f,
             int restarts,
             const std::function<std::vector<double>(Rng &)> &sampler,
             Rng &rng)
{
    std::vector<std::unique_ptr<OptRun>> runs;
    runs.reserve(static_cast<std::size_t>(restarts));
    for (int r = 0; r < restarts; ++r)
        runs.push_back(optimizer.start(sampler(rng)));

    std::vector<OptRun *> asked;
    std::vector<std::vector<double>> points;
    for (;;) {
        asked.clear();
        points.clear();
        for (const std::unique_ptr<OptRun> &run : runs) {
            if (const std::vector<double> *x = run->ask()) {
                asked.push_back(run.get());
                points.push_back(*x);
            }
        }
        if (asked.empty())
            break;
        const std::vector<double> values = f(points);
        if (values.size() != points.size())
            throw std::logic_error(
                "multiRestart: batch objective returned " +
                std::to_string(values.size()) + " values for " +
                std::to_string(points.size()) + " points");
        for (std::size_t i = 0; i < asked.size(); ++i)
            asked[i]->tell(values[i]);
    }

    std::vector<OptResult> out;
    out.reserve(runs.size());
    for (const std::unique_ptr<OptRun> &run : runs)
        out.push_back(run->takeResult());
    return out;
}

std::size_t
bestRun(const std::vector<OptResult> &runs)
{
    assert(!runs.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < runs.size(); ++i)
        if (runs[i].value < runs[best].value)
            best = i;
    return best;
}

} // namespace redqaoa
