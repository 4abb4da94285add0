#pragma once

/**
 * @file
 * Test-only reference MWPM decode over the spacetime graph, with one
 * Dijkstra per defect instead of the distance oracle. It feeds the
 * same savings graph (or the same subset DP) as `MwpmDecoder` and
 * recovers each correction by walking the Dijkstra parent chain, so
 * `MwpmDecoder`'s oracle distances and its (dist, id) parent walk must
 * reproduce its weight and correction bit-for-bit, for any positive
 * (space_weight, time_weight).
 */

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "decoders/decoder.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "matching/mwpm.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/** Largest defect count the ExactDp matcher solves (as in mwpm.cpp). */
constexpr int kReferenceExactDpMaxDefects = 18;

/**
 * Decode `events` over `rounds` rounds as `MwpmDecoder(code, detector,
 * space_weight, time_weight, matcher)` must. Nodes are (check, round)
 * with id `round * num_checks + check`; the min-heap pops (dist, id)
 * pairs, so among equal distances the smaller id settles first and a
 * node keeps the parent that first reached its final distance.
 */
inline Decoder::Result
dijkstra_reference_decode(const RotatedSurfaceCode &code,
                          CheckType detector, int space_weight,
                          int time_weight, MwpmDecoder::Matcher matcher,
                          const std::vector<DetectionEvent> &events,
                          int rounds)
{
    Decoder::Result result;
    result.correction.assign(code.num_data(), 0);
    result.defects = static_cast<int>(events.size());
    if (events.empty()) {
        return result;
    }
    const int num_checks = code.num_checks(detector);
    const int num_nodes = rounds * num_checks;
    const int k = static_cast<int>(events.size());
    auto node_id = [num_checks](int check, int round) {
        return round * num_checks + check;
    };

    // Per-defect Dijkstra: distances, parents (node and the data qubit
    // of the space edge, -1 for a time edge) and the first settled
    // boundary-adjacent node.
    std::vector<std::vector<int>> dist(k, std::vector<int>(num_nodes, -1));
    std::vector<std::vector<int>> parent_node(
        k, std::vector<int>(num_nodes, -1));
    std::vector<std::vector<int>> parent_data(
        k, std::vector<int>(num_nodes, -1));
    std::vector<int64_t> boundary_dist(k, -1);
    std::vector<int> boundary_node(k, -1);
    std::vector<int> boundary_via(k, -1);
    for (int i = 0; i < k; ++i) {
        const int src = node_id(events[i].check, events[i].round);
        using HeapEntry = std::pair<int, int>;  // (distance, node)
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<HeapEntry>>
            frontier;
        dist[i][src] = 0;
        frontier.push({0, src});
        while (!frontier.empty()) {
            const auto [cur_dist, cur] = frontier.top();
            frontier.pop();
            if (cur_dist != dist[i][cur]) {
                continue;  // stale entry
            }
            const int check = cur % num_checks;
            const int round = cur / num_checks;
            if (boundary_dist[i] < 0 &&
                !code.boundary_data(detector, check).empty()) {
                boundary_dist[i] = cur_dist + space_weight;
                boundary_node[i] = cur;
                boundary_via[i] = code.boundary_data(detector, check)[0];
            }
            auto relax = [&](int node, int via_data, int weight) {
                const int cand = cur_dist + weight;
                if (dist[i][node] < 0 || cand < dist[i][node]) {
                    dist[i][node] = cand;
                    parent_node[i][node] = cur;
                    parent_data[i][node] = via_data;
                    frontier.push({cand, node});
                }
            };
            for (const CliqueNeighbor &nb :
                 code.clique_neighbors(detector, check)) {
                relax(node_id(nb.check, round), nb.shared_data,
                      space_weight);
            }
            if (round + 1 < rounds) {
                relax(node_id(check, round + 1), -1, time_weight);
            }
            if (round > 0) {
                relax(node_id(check, round - 1), -1, time_weight);
            }
        }
    }

    std::vector<std::vector<int64_t>> w(k, std::vector<int64_t>(k, -1));
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            if (j != i) {
                w[i][j] = dist[i][node_id(events[j].check, events[j].round)];
            }
        }
    }

    std::vector<int> mate;
    if (matcher == MwpmDecoder::Matcher::ExactDp &&
        k <= kReferenceExactDpMaxDefects) {
        exact_min_weight_with_boundary_mates(k, w, boundary_dist, mate);
    } else {
        MaxWeightMatching solver;
        solver.reset(k);
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t saving =
                    boundary_dist[i] + boundary_dist[j] - w[i][j];
                if (saving > 0) {
                    solver.add_edge(i, j, saving);
                }
            }
        }
        mate = solver.solve();
    }

    auto walk_back = [&](int i, int node) {
        for (; parent_node[i][node] >= 0; node = parent_node[i][node]) {
            if (parent_data[i][node] >= 0) {
                result.correction[parent_data[i][node]] ^= 1;
            }
        }
    };
    for (int i = 0; i < k; ++i) {
        const int m = mate[i];
        if (m >= 0 && m < i) {
            continue;
        }
        if (m < 0) {
            result.weight += boundary_dist[i];
            result.correction[boundary_via[i]] ^= 1;
            walk_back(i, boundary_node[i]);
        } else {
            result.weight += w[i][m];
            walk_back(i, node_id(events[m].check, events[m].round));
        }
    }
    return result;
}

} // namespace btwc
