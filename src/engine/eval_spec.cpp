#include "engine/eval_spec.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace redqaoa {

const char *
backendName(EvalBackend kind)
{
    switch (kind) {
    case EvalBackend::Auto:
        return "auto";
    case EvalBackend::Statevector:
        return "statevector";
    case EvalBackend::AnalyticP1:
        return "analytic-p1";
    case EvalBackend::Lightcone:
        return "lightcone";
    case EvalBackend::Trajectory:
        return "trajectory";
    }
    throw std::logic_error("backendName: unknown backend");
}

const char *
backendCounterName(EvalBackend kind)
{
    switch (kind) {
    case EvalBackend::Auto:
        return "backend.auto";
    case EvalBackend::Statevector:
        return "backend.statevector";
    case EvalBackend::AnalyticP1:
        return "backend.analytic-p1";
    case EvalBackend::Lightcone:
        return "backend.lightcone";
    case EvalBackend::Trajectory:
        return "backend.trajectory";
    }
    throw std::logic_error("backendCounterName: unknown backend");
}

EvalSpec
EvalSpec::ideal(int p, int exact_qubit_limit)
{
    EvalSpec spec;
    spec.layers = p;
    spec.exactQubitLimit = exact_qubit_limit;
    return spec;
}

EvalSpec
EvalSpec::noisy(const NoiseModel &nm, int p, int trajectories,
                std::uint64_t seed, int shots)
{
    EvalSpec spec;
    spec.backend = EvalBackend::Trajectory;
    spec.layers = p;
    spec.noise = nm;
    spec.trajectories = trajectories;
    spec.seed = seed;
    spec.shots = shots;
    return spec;
}

EvalSpec
EvalSpec::withLayers(int p) const
{
    EvalSpec spec = *this;
    spec.layers = p;
    return spec;
}

EvalBackend
resolveBackend(const EvalSpec &spec, const Graph &g)
{
    if (spec.backend != EvalBackend::Auto)
        return spec.backend;
    if (!spec.noise.isIdeal())
        return EvalBackend::Trajectory;
    if (g.numNodes() <= spec.exactQubitLimit)
        return EvalBackend::Statevector;
    if (spec.layers == 1)
        return EvalBackend::AnalyticP1;
    return EvalBackend::Lightcone;
}

bool
deterministicBackend(EvalBackend kind)
{
    return kind != EvalBackend::Trajectory;
}

namespace {

/** Exact decimal-ish rendering of a double for cache keys. */
void
appendField(std::string &out, const char *name, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "|%s=%.17g", name, v);
    out += buf;
}

} // namespace

std::string
backendCacheKey(const EvalSpec &spec, EvalBackend kind)
{
    std::string key = backendName(kind);
    switch (kind) {
    case EvalBackend::Statevector:
    case EvalBackend::AnalyticP1:
        // Depth- and limit-independent: the evaluator answers any
        // params (AnalyticP1 only ever sees p = 1 queries).
        return key;
    case EvalBackend::Lightcone: {
        char buf[48];
        std::snprintf(buf, sizeof buf, "|p=%d|cap=%d", spec.layers,
                      spec.exactQubitLimit);
        return key + buf;
    }
    case EvalBackend::Trajectory: {
        const NoiseModel &nm = spec.noise;
        key += "|" + nm.name;
        appendField(key, "d1", nm.oneQubitDepol);
        appendField(key, "d2", nm.twoQubitDepol);
        appendField(key, "ad", nm.amplitudeDamping);
        appendField(key, "pd", nm.phaseDamping);
        appendField(key, "ro", nm.readoutError);
        appendField(key, "or", nm.overRotation);
        appendField(key, "ih", nm.inhomogeneity);
        appendField(key, "ra", nm.readoutAsymmetry);
        appendField(key, "zz", nm.zzCrosstalk);
        key += nm.durationScaledNoise ? "|dur=1" : "|dur=0";
        char buf[80];
        std::snprintf(buf, sizeof buf, "|traj=%d|seed=%" PRIu64 "|shots=%d",
                      spec.trajectories, spec.seed, spec.shots);
        return key + buf;
    }
    case EvalBackend::Auto:
        break;
    }
    throw std::logic_error("backendCacheKey: unresolved Auto spec");
}

} // namespace redqaoa
