#include "matching/mwpm.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "surface/distance.hpp"

namespace btwc {

namespace {

/**
 * Largest defect count handed to the subset-DP matcher: O(2^k * k)
 * time and O(2^k) memory, so 18 keeps a single decode under ~5M ops.
 * Beyond it the ExactDp backend falls back to blossom (which the
 * property tests verify is exact anyway).
 */
constexpr int kExactDpMaxDefects = 18;

} // namespace

int
log_likelihood_weight(double p, double scale)
{
    BTWC_CHECK(p > 0.0 && p < 1.0);
    const double w = scale * std::log((1.0 - p) / p);
    return w < 1.0 ? 1 : static_cast<int>(std::lround(w));
}

/**
 * Persistent per-instance working set. Every array (and the blossom
 * matcher's edge list, adjacency and blossom arrays) holds on to its
 * grown capacity, so after the first few decodes the steady state
 * allocates nothing — this is what the `BM_MwpmDecodeSingle`
 * benchmarks measure. One Scratch lives in each decoder
 * (`MwpmDecoder::scratch_`); `decode`, `decode_matched` and the
 * tier-chain resume paths all route through it.
 */
struct MwpmDecoder::Scratch
{
    std::vector<int64_t> boundary_dist;
    std::vector<int> mate_defect;

    // Subset-DP bridge: k x k pairwise distances, one row per defect.
    std::vector<std::vector<int64_t>> dp_w;

    // Pooled pairing engine (MaxWeightMatching::reset).
    MaxWeightMatching matcher;
};

MwpmDecoder::MwpmDecoder(const RotatedSurfaceCode &code, CheckType detector,
                         int space_weight, int time_weight, Matcher matcher)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)),
      space_weight_(space_weight), time_weight_(time_weight),
      matcher_(matcher), scratch_(std::make_unique<Scratch>())
{
    BTWC_CHECK(space_weight >= 1 && time_weight >= 1);
}

MwpmDecoder::~MwpmDecoder() = default;

MwpmDecoder::Result
MwpmDecoder::decode(const std::vector<DetectionEvent> &events,
                    int rounds) const
{
    thread_owner_.assert_single_thread_owner();
    return decode_impl(events, rounds, *scratch_);
}

MwpmDecoder::Result
MwpmDecoder::decode_matched(const std::vector<DetectionEvent> &events,
                            int rounds, MwpmMatches &matches) const
{
    thread_owner_.assert_single_thread_owner();
    return decode_impl(events, rounds, *scratch_, &matches);
}

MwpmDecoder::Result
MwpmDecoder::decode_impl(const std::vector<DetectionEvent> &events,
                         int rounds, Scratch &scratch,
                         MwpmMatches *matches) const
{
    Result result;
    result.correction.assign(code_.num_data(), 0);
    result.defects = static_cast<int>(events.size());
    if (matches != nullptr) {
        matches->clear();
    }
    if (events.empty()) {
        return result;
    }
    BTWC_CHECK(rounds >= 1);
    const bool audit = audit_basic();

    const int k = static_cast<int>(events.size());
    const size_t ks = static_cast<size_t>(k);

    // With one weight per dimension the spacetime graph is the
    // Cartesian product of the check graph and the round path, so a
    // distance is sw * hops + tw * |dr| and a boundary distance is
    // sw * (hops + 1), both from the precomputed oracle in O(1).
    const CheckGraphDistances &oracle = code_.check_distances(detector_);
    const int64_t sw = space_weight_;
    const int64_t tw = time_weight_;

    auto pair_dist = [&](int i, int j) {
        return sw * oracle.distance(events[i].check, events[j].check) +
               tw * std::abs(events[i].round - events[j].round);
    };
    std::vector<int64_t> &boundary_dist = scratch.boundary_dist;
    boundary_dist.resize(ks);
    for (int i = 0; i < k; ++i) {
        if (audit) {
            BTWC_CHECK(events[i].round >= 0 && events[i].round < rounds);
            BTWC_CHECK(events[i].check >= 0 && events[i].check < num_checks_);
        }
        boundary_dist[i] = sw * (oracle.boundary_hops(events[i].check) + 1);
    }

    // Solve the pairing: mate_defect[i] is another defect index, or -1
    // for a boundary retirement.
    std::vector<int> &mate_defect = scratch.mate_defect;
    if (matcher_ == Matcher::ExactDp && k <= kExactDpMaxDefects) {
        std::vector<std::vector<int64_t>> &dp_w = scratch.dp_w;
        if (dp_w.size() < ks) {
            dp_w.resize(ks);
        }
        for (int i = 0; i < k; ++i) {
            dp_w[i].assign(ks, -1);
            for (int j = 0; j < k; ++j) {
                if (j != i) {
                    dp_w[i][j] = pair_dist(i, j);
                }
            }
        }
        const int64_t total = exact_min_weight_with_boundary_mates(
            k, dp_w, boundary_dist, mate_defect);
        BTWC_CHECK_MSG(total >= 0,
                       "defect graph always admits a boundary matching");
    } else {
        // The savings graph: one vertex per defect and, for each pair
        // with w_ij < b_i + b_j, an edge of weight b_i + b_j - w_ij,
        // the cost saved by pairing the two instead of retiring both
        // to the boundary. A defect left exposed retires. Every
        // pairing costs sum(b) - its savings, so the maximum-weight
        // matching is the minimum-cost pairing. A pair without
        // savings can be swapped for its two retirements at no extra
        // cost, so leaving it out keeps the optimum. Insertion order
        // (ascending i, then j) fixes the tie selection.
        MaxWeightMatching &solver = scratch.matcher;
        solver.reset(k);
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t saving =
                    boundary_dist[i] + boundary_dist[j] - pair_dist(i, j);
                if (saving > 0) {
                    solver.add_edge(i, j, saving);
                }
            }
        }
        const std::vector<int> &mate = solver.solve();
        mate_defect.assign(mate.begin(), mate.end());
    }

    // Path recovery follows the parent chain a Dijkstra from the
    // source defect would record (tests/dijkstra_reference.hpp).
    // Dijkstra settles nodes in (dist, node id) order, so the parent
    // of node (c, r) is its tight neighbor (one edge closer to the
    // source) with the smallest (dist, id). A tight space neighbor is
    // one hop closer in the check graph whatever the round, and all
    // of them share one dist, so the space step from c always goes to
    // its smallest-id neighbor one hop closer. The weights only decide
    // how time steps interleave with the space steps (tw > sw: time
    // first; sw > tw: space first; equal: back in time, space, then
    // forward in time, the round-major id order), and time steps
    // toggle no data qubit. So the walk takes the space steps alone,
    // toggling the same qubits in the same order for every weight.
    auto toggle = [&](int via) {
        result.correction[via] ^= 1;
        if (matches != nullptr) {
            matches->path_data.push_back(via);
        }
    };

    auto walk = [&](int i, int c) {
        const int sc = events[i].check;
        for (int hops = oracle.distance(sc, c); hops > 0; --hops) {
            int best_check = std::numeric_limits<int>::max();
            int via = -1;
            for (const CliqueNeighbor &nb :
                 code_.clique_neighbors(detector_, c)) {
                if (nb.check < best_check &&
                    oracle.distance(sc, nb.check) == hops - 1) {
                    best_check = nb.check;
                    via = nb.shared_data;
                }
            }
            BTWC_DCHECK(via >= 0);
            c = best_check;
            toggle(via);
        }
        if (audit) {
            BTWC_CHECK_MSG(c == sc, "geodesic walk must terminate at the "
                                    "source defect");
        }
    };

    for (int i = 0; i < k; ++i) {
        const int m = mate_defect[i];
        if (m >= 0 && m < i) {
            continue;  // pair already walked from its lower endpoint
        }
        const int path_begin =
            matches != nullptr ? static_cast<int>(matches->path_data.size())
                               : 0;
        int64_t pair_weight = 0;
        if (m < 0) {
            // Boundary retirement: the half-edge of the nearest
            // boundary-adjacent check, then the walk back from it.
            pair_weight = boundary_dist[i];
            const int bc = oracle.boundary_check(events[i].check);
            toggle(code_.boundary_data(detector_, bc)[0]);
            walk(i, bc);
        } else {
            pair_weight = pair_dist(i, m);
            walk(i, events[m].check);
        }
        result.weight += pair_weight;
        if (matches != nullptr) {
            matches->pairs.push_back(
                {i, m, pair_weight, path_begin,
                 static_cast<int>(matches->path_data.size())});
        }
    }
    return result;
}

} // namespace btwc
