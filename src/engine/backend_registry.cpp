#include "engine/backend_registry.hpp"

#include <stdexcept>

#include "engine/artifact_cache.hpp"

namespace redqaoa {

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

bool
BackendRegistry::add(EvalBackend kind, BackendFactory factory)
{
    if (kind == EvalBackend::Auto)
        throw std::invalid_argument(
            "BackendRegistry: Auto is a policy, not a backend");
    auto [it, inserted] = factories_.emplace(kind, std::move(factory));
    (void)it;
    if (!inserted)
        throw std::invalid_argument(
            std::string("BackendRegistry: duplicate backend ") +
            backendName(kind));
    return true;
}

std::unique_ptr<CutEvaluator>
BackendRegistry::make(const Graph &g, const EvalSpec &spec,
                      ArtifactCache *cache) const
{
    EvalBackend kind = resolveBackend(spec, g);
    auto it = factories_.find(kind);
    if (it == factories_.end())
        throw std::out_of_range(
            std::string("BackendRegistry: no factory for ") +
            backendName(kind));
    return it->second(g, spec, cache);
}

std::unique_ptr<CutEvaluator>
makeEvaluator(const Graph &g, const EvalSpec &spec, ArtifactCache *cache)
{
    return BackendRegistry::instance().make(g, spec, cache);
}

namespace {

const bool kStatevectorRegistered = BackendRegistry::instance().add(
    EvalBackend::Statevector,
    [](const Graph &g, const EvalSpec &, ArtifactCache *cache) {
        if (cache)
            return std::make_unique<ExactEvaluator>(g, cache->cutTable(g));
        return std::make_unique<ExactEvaluator>(g);
    });

const bool kAnalyticRegistered = BackendRegistry::instance().add(
    EvalBackend::AnalyticP1,
    [](const Graph &g, const EvalSpec &,
       ArtifactCache *cache) -> std::unique_ptr<CutEvaluator> {
        if (cache)
            return std::make_unique<AnalyticEvaluator>(cache->analytic(g));
        return std::make_unique<AnalyticEvaluator>(g);
    });

const bool kLightconeRegistered = BackendRegistry::instance().add(
    EvalBackend::Lightcone,
    [](const Graph &g, const EvalSpec &spec,
       ArtifactCache *cache) -> std::unique_ptr<CutEvaluator> {
        if (cache)
            return std::make_unique<LightconeCutEvaluator>(cache->lightcone(
                g, spec.layers, spec.exactQubitLimit));
        return std::make_unique<LightconeCutEvaluator>(
            g, spec.layers, spec.exactQubitLimit);
    });

const bool kTrajectoryRegistered = BackendRegistry::instance().add(
    EvalBackend::Trajectory,
    [](const Graph &g, const EvalSpec &spec, ArtifactCache *) {
        // Always a fresh instance: the trajectory simulator's RNG
        // stream advances with every call, so sharing one across
        // callers would make results depend on global call order.
        return std::make_unique<NoisyEvaluator>(g, spec.noise,
                                                spec.trajectories,
                                                spec.seed, spec.shots);
    });

} // namespace

} // namespace redqaoa
