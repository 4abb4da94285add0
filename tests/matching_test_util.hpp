#pragma once

/**
 * @file
 * Test helpers for the blossom matcher and the matching decoders: a
 * friend view of the matcher's internals, the offset reduction that
 * poses perfect-matching instances to the maximum-weight matcher, the
 * savings-graph reduction the MWPM decoder uses, a phenomenological
 * window sampler, and a generator of detection events rich in boundary
 * ties.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "decoders/decoder.hpp"
#include "matching/blossom.hpp"
#include "surface/distance.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/** Test-only view of the matcher's duals, mates, due times and counters. */
struct MaxWeightMatchingTestPeer
{
    static std::vector<int64_t> &dual(MaxWeightMatching &m)
    {
        return m.dual_;
    }
    static std::vector<int> &mate(MaxWeightMatching &m) { return m.mate_; }
    /** Per-owner due keys: 2 * due time (+1 for a T-blossom). */
    static std::vector<int64_t> &due(MaxWeightMatching &m) { return m.due_; }
    /** The deep audit's re-derivation of every owner's due key. */
    static void audit_owners(const MaxWeightMatching &m)
    {
        m.audit_owners();
    }
    static int nested_blossoms(const MaxWeightMatching &m)
    {
        return m.nested_blossoms_;
    }
    static int t_expansions(const MaxWeightMatching &m)
    {
        return m.t_expansions_;
    }
    static int s_expansions(const MaxWeightMatching &m)
    {
        return m.s_expansions_;
    }
    static int blossoms_formed(const MaxWeightMatching &m)
    {
        return m.blossoms_formed_;
    }
    static int stages(const MaxWeightMatching &m) { return m.stages_; }
    static int augmentations(const MaxWeightMatching &m)
    {
        return m.augmentations_;
    }
    static int dual_steps(const MaxWeightMatching &m)
    {
        return m.dual_steps_;
    }
};

/** Random spacetime detection events: noisy rounds + a perfect one. */
inline std::vector<DetectionEvent>
sample_events(const RotatedSurfaceCode &code, CheckType detector,
              int rounds, double p, Rng &rng)
{
    const CheckType error_type =
        detector == CheckType::Z ? CheckType::X : CheckType::Z;
    ErrorFrame frame(code, error_type);
    std::vector<std::vector<uint8_t>> raw(rounds);
    for (int t = 0; t < rounds - 1; ++t) {
        frame.inject(p, rng);
        frame.measure(p, rng, raw[t]);
    }
    frame.inject(p, rng);
    frame.measure_perfect(raw[rounds - 1]);
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (int c = 0; c < code.num_checks(detector); ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

/** One weighted edge of a test instance. */
struct WeightedEdge
{
    int u = 0;
    int v = 0;
    int64_t w = 0;
};

/**
 * Solve a maximum-weight *perfect* matching instance on the
 * maximum-weight `MaxWeightMatching`: re-arm `matcher` for n vertices,
 * add every edge with its weight raised by the uniform offset
 * L = (n/2) * max_w + 1, and solve. One more matched edge then always
 * outweighs any difference in the original weights, so the result has
 * maximum cardinality and, among such matchings, maximum original
 * weight. `weight` (optional) receives the total without the offsets.
 * Weights must be non-negative.
 */
inline const std::vector<int> &
solve_with_offset(MaxWeightMatching &matcher, int n,
                  const std::vector<WeightedEdge> &edges,
                  int64_t *weight = nullptr)
{
    int64_t max_w = 0;
    for (const WeightedEdge &e : edges) {
        BTWC_CHECK(e.w >= 0);
        max_w = std::max(max_w, e.w);
    }
    const int64_t offset = static_cast<int64_t>(n / 2) * max_w + 1;
    matcher.reset(n);
    for (const WeightedEdge &e : edges) {
        matcher.add_edge(e.u, e.v, e.w + offset);
    }
    const std::vector<int> &mate = matcher.solve();
    if (weight != nullptr) {
        int64_t pairs = 0;
        for (int u = 0; u < n; ++u) {
            pairs += mate[u] > u ? 1 : 0;
        }
        *weight = matcher.total_weight() - pairs * offset;
    }
    return mate;
}

/**
 * Minimum cost of pairing k defects (pair cost dist[i][j]) or retiring
 * them (cost boundary[i]), solved the way `MwpmDecoder` does: a
 * maximum-weight matching on the savings graph, whose edges join the
 * pairs with dist[i][j] < boundary[i] + boundary[j] at weight
 * boundary[i] + boundary[j] - dist[i][j]. The cost is the sum of the
 * boundary costs minus the matched savings.
 */
inline int64_t
savings_graph_cost(MaxWeightMatching &matcher,
                   const std::vector<std::vector<int64_t>> &dist,
                   const std::vector<int64_t> &boundary)
{
    const int k = static_cast<int>(boundary.size());
    matcher.reset(k);
    int64_t retire_all = 0;
    for (int i = 0; i < k; ++i) {
        retire_all += boundary[i];
        for (int j = i + 1; j < k; ++j) {
            const int64_t saving = boundary[i] + boundary[j] - dist[i][j];
            if (saving > 0) {
                matcher.add_edge(i, j, saving);
            }
        }
    }
    matcher.solve();
    return retire_all - matcher.total_weight();
}

/**
 * Distinct detection events made of `pairs` boundary ties: each pair
 * (i, j) has spacetime distance w_ij == b_i + b_j, so pairing it and
 * retiring both ends cost the same (the pairs the decoder's savings
 * graph leaves out). Distances are the oracle's under space weight
 * `sw` and time weight `tw` (unit by default).
 */
inline std::vector<DetectionEvent>
tie_heavy_events(const RotatedSurfaceCode &code, CheckType detector,
                 int rounds, int pairs, Rng &rng, int sw = 1, int tw = 1)
{
    const CheckGraphDistances &oracle = code.check_distances(detector);
    const int checks = code.num_checks(detector);
    std::vector<uint8_t> used(static_cast<size_t>(checks) * rounds, 0);
    std::vector<DetectionEvent> events;
    std::vector<DetectionEvent> partners;
    for (int attempt = 0; attempt < 8 * pairs &&
                          static_cast<int>(events.size()) < 2 * pairs;
         ++attempt) {
        const DetectionEvent a{
            static_cast<int>(rng.next_below(checks)),
            static_cast<int>(rng.next_below(rounds))};
        if (used[static_cast<size_t>(a.round) * checks + a.check]) {
            continue;
        }
        const int b_a = sw * (oracle.boundary_hops(a.check) + 1);
        partners.clear();
        for (int t = 0; t < rounds; ++t) {
            for (int c = 0; c < checks; ++c) {
                const int w = sw * oracle.distance(a.check, c) +
                              tw * std::abs(a.round - t);
                if (w == b_a + sw * (oracle.boundary_hops(c) + 1) &&
                    !used[static_cast<size_t>(t) * checks + c]) {
                    partners.push_back(DetectionEvent{c, t});
                }
            }
        }
        if (partners.empty()) {
            continue;
        }
        const DetectionEvent b = partners[rng.next_below(partners.size())];
        used[static_cast<size_t>(a.round) * checks + a.check] = 1;
        used[static_cast<size_t>(b.round) * checks + b.check] = 1;
        events.push_back(a);
        events.push_back(b);
    }
    std::sort(events.begin(), events.end(),
              [](const DetectionEvent &x, const DetectionEvent &y) {
                  return x.round != y.round ? x.round < y.round
                                            : x.check < y.check;
              });
    return events;
}

} // namespace btwc
