#include "matching/blossom.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace btwc {

MaxWeightMatching::MaxWeightMatching(int n)
{
    reset(n);
}

void
MaxWeightMatching::reset(int n)
{
    BTWC_CHECK(n >= 0);
    n_ = n;
    endpoint_.clear();
    weight_.clear();
    mate_vertex_.clear();
    total_weight_ = 0;
    blossoms_formed_ = 0;
    nested_blossoms_ = 0;
    t_expansions_ = 0;
    s_expansions_ = 0;
    stages_ = 0;
    augmentations_ = 0;
}

template <class F>
void
MaxWeightMatching::for_each_leaf(int b, F &f) const
{
    if (b < n_) {
        f(b);
        return;
    }
    for (const int t : blossom_childs_[b]) {
        for_each_leaf(t, f);
    }
}

int
MaxWeightMatching::first_labeled_leaf(int b) const
{
    if (b < n_) {
        return label_[b] != 0 ? b : -1;
    }
    for (const int t : blossom_childs_[b]) {
        const int v = first_labeled_leaf(t);
        if (v >= 0) {
            return v;
        }
    }
    return -1;
}

void
MaxWeightMatching::build_adjacency()
{
    // Counting sort of endpoints by vertex, stable in edge order:
    // vertex endpoint_[p] lists the remote endpoint p ^ 1.
    adj_begin_.assign(static_cast<size_t>(n_) + 1, 0);
    for (const int v : endpoint_) {
        ++adj_begin_[static_cast<size_t>(v) + 1];
    }
    for (int v = 0; v < n_; ++v) {
        adj_begin_[v + 1] += adj_begin_[v];
    }
    adj_.resize(endpoint_.size());
    for (size_t p = 0; p < endpoint_.size(); ++p) {
        adj_[adj_begin_[endpoint_[p]]++] = static_cast<int>(p ^ 1);
    }
    for (int v = n_; v > 0; --v) {
        adj_begin_[v] = adj_begin_[v - 1];
    }
    adj_begin_[0] = 0;
}

void
MaxWeightMatching::assign_label(int w, int t, int p)
{
    // Label the top-level blossom of w with t through endpoint p; a T
    // label propagates an S label to the mate of the blossom's base.
    // Both join the tree of the S-vertex at endpoint p (a root, p ==
    // -1, starts its own tree).
    const int root = p < 0 ? w : tree_root_[in_blossom_[endpoint_[p]]];
    for (;;) {
        const int b = in_blossom_[w];
        BTWC_DCHECK(label_[w] == 0 && label_[b] == 0);
        label_[w] = label_[b] = t;
        label_end_[w] = label_end_[b] = p;
        best_edge_[w] = best_edge_[b] = -1;
        tree_root_[b] = root;
        if (t == 1) {
            auto push = [this](int v) { queue_.push_back(v); };
            for_each_leaf(b, push);
            return;
        }
        const int mate_end = mate_[blossom_base_[b]];
        BTWC_DCHECK(mate_end >= 0);
        w = endpoint_[mate_end];
        t = 1;
        p = mate_end ^ 1;
    }
}

int
MaxWeightMatching::scan_blossom(int v, int w)
{
    // Trace back from v and w alternately towards the tree roots; the
    // first blossom reached twice is the base of a new blossom. None
    // means the two roots differ: an augmenting path.
    scan_path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
        int b = in_blossom_[v];
        if (label_[b] & 4) {
            base = blossom_base_[b];
            break;
        }
        BTWC_DCHECK(label_[b] == 1);
        scan_path_.push_back(b);
        label_[b] = 5;
        if (label_end_[b] == -1) {
            v = -1;  // reached a root
        } else {
            v = endpoint_[label_end_[b]];
            b = in_blossom_[v];
            BTWC_DCHECK(label_[b] == 2);
            v = endpoint_[label_end_[b]];
        }
        if (w != -1) {
            std::swap(v, w);
        }
    }
    for (const int b : scan_path_) {
        label_[b] = 1;
    }
    return base;
}

void
MaxWeightMatching::consider_best_edge(int b, int k)
{
    int j = endpoint_[2 * k + 1];
    if (in_blossom_[j] == b) {
        j = endpoint_[2 * k];
    }
    const int bj = in_blossom_[j];
    if (bj != b && label_[bj] == 1 &&
        (best_edge_to_[bj] == -1 || slack(k) < slack(best_edge_to_[bj]))) {
        best_edge_to_[bj] = k;
    }
}

void
MaxWeightMatching::add_blossom(int base, int k)
{
    // Shrink the odd cycle closed by edge k through `base` into a new
    // S-blossom b.
    int v = endpoint_[2 * k];
    int w = endpoint_[2 * k + 1];
    const int bb = in_blossom_[base];
    int bv = in_blossom_[v];
    int bw = in_blossom_[w];
    const int b = unused_blossoms_.back();
    unused_blossoms_.pop_back();
    ++blossoms_formed_;
    blossom_base_[b] = base;
    blossom_parent_[b] = -1;
    blossom_parent_[bb] = b;
    std::vector<int> &path = blossom_childs_[b];
    std::vector<int> &endps = blossom_endps_[b];
    path.clear();
    endps.clear();
    while (bv != bb) {
        blossom_parent_[bv] = b;
        path.push_back(bv);
        endps.push_back(label_end_[bv]);
        v = endpoint_[label_end_[bv]];
        bv = in_blossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    while (bw != bb) {
        blossom_parent_[bw] = b;
        path.push_back(bw);
        endps.push_back(label_end_[bw] ^ 1);
        w = endpoint_[label_end_[bw]];
        bw = in_blossom_[w];
    }
    BTWC_DCHECK(label_[bb] == 1);
    label_[b] = 1;
    label_end_[b] = label_end_[bb];
    tree_root_[b] = tree_root_[bb];
    dual_[b] = 0;
    // Former T-vertices become S-vertices: scan them.
    auto relabel = [this, b](int leaf) {
        if (label_[in_blossom_[leaf]] == 2) {
            queue_.push_back(leaf);
        }
        in_blossom_[leaf] = b;
    };
    for_each_leaf(b, relabel);

    // Merge the children's least-slack edges into one per neighbouring
    // S-blossom.
    std::fill(best_edge_to_.begin(), best_edge_to_.begin() + 2 * n_, -1);
    for (const int child : path) {
        if (child >= n_) {
            ++nested_blossoms_;
        }
        if (has_blossom_best_[child]) {
            for (const int e : blossom_best_[child]) {
                consider_best_edge(b, e);
            }
        } else {
            auto scan = [this, b](int leaf) {
                for (int i = adj_begin_[leaf]; i < adj_begin_[leaf + 1];
                     ++i) {
                    consider_best_edge(b, adj_[i] >> 1);
                }
            };
            for_each_leaf(child, scan);
        }
        has_blossom_best_[child] = 0;
        best_edge_[child] = -1;
    }
    std::vector<int> &best = blossom_best_[b];
    best.clear();
    for (int i = 0; i < 2 * n_; ++i) {
        if (best_edge_to_[i] != -1) {
            best.push_back(best_edge_to_[i]);
        }
    }
    has_blossom_best_[b] = 1;
    best_edge_[b] = -1;
    for (const int e : best) {
        if (best_edge_[b] == -1 || slack(e) < slack(best_edge_[b])) {
            best_edge_[b] = e;
        }
    }
}

void
MaxWeightMatching::expand_blossom(int b, bool dissolving)
{
    // Turn the children of b into top-level blossoms; when b's tree
    // dissolves, zero-dual children recursively too.
    if (dissolving) {
        ++s_expansions_;
    }
    for (const int s : blossom_childs_[b]) {
        blossom_parent_[s] = -1;
        if (s < n_) {
            in_blossom_[s] = s;
        } else if (dissolving && dual_[s] == 0) {
            expand_blossom(s, true);
        } else {
            auto own = [this, s](int leaf) { in_blossom_[leaf] = s; };
            for_each_leaf(s, own);
        }
    }
    if (!dissolving && label_[b] == 2) {
        // A T-blossom mid-stage: relabel the even-length path from the
        // entry child to the base so the alternating tree stays valid.
        ++t_expansions_;
        const std::vector<int> &childs = blossom_childs_[b];
        const std::vector<int> &endps = blossom_endps_[b];
        const size_t len = childs.size();
        const int entry_child = in_blossom_[endpoint_[label_end_[b] ^ 1]];
        int j = static_cast<int>(
            std::find(childs.begin(), childs.end(), entry_child) -
            childs.begin());
        int jstep;
        int endptrick;
        if (j & 1) {
            j -= static_cast<int>(len);
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        int p = label_end_[b];
        while (j != 0) {
            label_[endpoint_[p ^ 1]] = 0;
            label_[endpoint_[endps[wrap(j - endptrick, len)] ^ endptrick ^
                             1]] = 0;
            assign_label(endpoint_[p ^ 1], 2, p);
            allow_edge_[endps[wrap(j - endptrick, len)] >> 1] = 1;
            j += jstep;
            p = endps[wrap(j - endptrick, len)] ^ endptrick;
            allow_edge_[p >> 1] = 1;
            j += jstep;
        }
        // The child at j == 0 (the base) takes b's T label.
        int bv = childs[wrap(j, len)];
        label_[endpoint_[p ^ 1]] = label_[bv] = 2;
        label_end_[endpoint_[p ^ 1]] = label_end_[bv] = p;
        best_edge_[bv] = -1;
        tree_root_[bv] = tree_root_[b];
        j += jstep;
        // Children off that path lose their labels unless a vertex in
        // them was reached from outside, which re-labels it T.
        while (childs[wrap(j, len)] != entry_child) {
            bv = childs[wrap(j, len)];
            if (label_[bv] == 1) {
                j += jstep;
                continue;
            }
            const int v = first_labeled_leaf(bv);
            if (v >= 0) {
                BTWC_DCHECK(label_[v] == 2 && in_blossom_[v] == bv);
                label_[v] = 0;
                label_[endpoint_[mate_[blossom_base_[bv]]]] = 0;
                assign_label(v, 2, label_end_[v]);
            }
            j += jstep;
        }
    }
    label_[b] = label_end_[b] = -1;
    blossom_childs_[b].clear();
    blossom_endps_[b].clear();
    blossom_base_[b] = -1;
    blossom_best_[b].clear();
    has_blossom_best_[b] = 0;
    best_edge_[b] = -1;
    unused_blossoms_.push_back(b);
}

void
MaxWeightMatching::augment_blossom(int b, int v)
{
    // Swap matched/unmatched edges along the even path from vertex v's
    // child to the base of b, then rotate v's child to the base slot.
    int t = v;
    while (blossom_parent_[t] != b) {
        t = blossom_parent_[t];
    }
    if (t >= n_) {
        augment_blossom(t, v);
    }
    std::vector<int> &childs = blossom_childs_[b];
    std::vector<int> &endps = blossom_endps_[b];
    const size_t len = childs.size();
    const int i = static_cast<int>(
        std::find(childs.begin(), childs.end(), t) - childs.begin());
    int j = i;
    int jstep;
    int endptrick;
    if (i & 1) {
        j -= static_cast<int>(len);
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    while (j != 0) {
        j += jstep;
        t = childs[wrap(j, len)];
        const int p = endps[wrap(j - endptrick, len)] ^ endptrick;
        if (t >= n_) {
            augment_blossom(t, endpoint_[p]);
        }
        j += jstep;
        t = childs[wrap(j, len)];
        if (t >= n_) {
            augment_blossom(t, endpoint_[p ^ 1]);
        }
        mate_[endpoint_[p]] = p ^ 1;
        mate_[endpoint_[p ^ 1]] = p;
    }
    std::rotate(childs.begin(), childs.begin() + i, childs.end());
    std::rotate(endps.begin(), endps.begin() + i, endps.end());
    blossom_base_[b] = blossom_base_[childs[0]];
    BTWC_DCHECK(blossom_base_[b] == v);
}

void
MaxWeightMatching::augment_matching(int k)
{
    ++augmentations_;
    // Flip the augmenting path through edge k back to both roots.
    const int ends[2] = {endpoint_[2 * k], endpoint_[2 * k + 1]};
    const int remote[2] = {2 * k + 1, 2 * k};
    for (int side = 0; side < 2; ++side) {
        int s = ends[side];
        int p = remote[side];
        for (;;) {
            const int bs = in_blossom_[s];
            BTWC_DCHECK(label_[bs] == 1);
            if (bs >= n_) {
                augment_blossom(bs, s);
            }
            mate_[s] = p;
            if (label_end_[bs] == -1) {
                break;  // reached the root
            }
            const int t = endpoint_[label_end_[bs]];
            const int bt = in_blossom_[t];
            BTWC_DCHECK(label_[bt] == 2);
            s = endpoint_[label_end_[bt]];
            const int j = endpoint_[label_end_[bt] ^ 1];
            if (bt >= n_) {
                augment_blossom(bt, j);
            }
            mate_[j] = label_end_[bt];
            p = label_end_[bt] ^ 1;
        }
    }
}

void
MaxWeightMatching::unlabel(int b)
{
    label_[b] = 0;
    best_edge_[b] = -1;
    if (b >= n_) {
        for (const int t : blossom_childs_[b]) {
            unlabel(t);
        }
    }
}

void
MaxWeightMatching::rebuild_best_edge(int b)
{
    // Least-slack edge from the leaves of b to another top-level
    // S-blossom, by a full scan. A blossom drops its best-edge list, so
    // a later merge rescans its leaves.
    best_edge_[b] = -1;
    has_blossom_best_[b] = 0;
    auto scan = [this, b](int leaf) {
        for (int i = adj_begin_[leaf]; i < adj_begin_[leaf + 1]; ++i) {
            const int k = adj_[i] >> 1;
            const int bw = in_blossom_[endpoint_[adj_[i]]];
            if (bw != b && label_[bw] == 1 &&
                (best_edge_[b] == -1 || slack(k) < slack(best_edge_[b]))) {
                best_edge_[b] = k;
            }
        }
    };
    for_each_leaf(b, scan);
}

void
MaxWeightMatching::dissolve_trees(int r1, int r2)
{
    // An augmentation joined the trees rooted at r1 and r2. Their
    // vertices become free; every other tree keeps growing.
    freed_.clear();
    for (int v = 0; v < n_; ++v) {
        const int b = in_blossom_[v];
        if (label_[b] != 0 && (tree_root_[b] == r1 || tree_root_[b] == r2)) {
            freed_.push_back(v);
        }
    }
    for (const int v : freed_) {
        const int b = in_blossom_[v];
        if (label_[b] == 0) {
            continue;  // its blossom was handled through another leaf
        }
        const bool s_blossom = label_[b] == 1;
        unlabel(b);
        if (b >= n_) {
            blossom_best_[b].clear();
            has_blossom_best_[b] = 0;
            if (s_blossom && dual_[b] == 0) {
                expand_blossom(b, true);
            }
        }
    }
    // Freed vertices re-test the tightness of their edges and find
    // their least-slack edge to an S-vertex. Labels elsewhere were
    // never derived from the dissolved trees, except the vertex labels
    // inside T-blossoms reached from them (cleared here) and
    // least-slack edges into them (re-derived before the next dual
    // step, by valid_best_edge()).
    for (const int v : freed_) {
        for (int i = adj_begin_[v]; i < adj_begin_[v + 1]; ++i) {
            allow_edge_[adj_[i] >> 1] = 0;
        }
        rebuild_best_edge(v);
    }
    for (int v = 0; has_blossoms() && v < n_; ++v) {
        if (label_[v] == 2 && label_[in_blossom_[v]] == 2 &&
            label_[in_blossom_[endpoint_[label_end_[v]]]] != 1) {
            label_[v] = 0;  // reached from a dissolved tree
            rebuild_best_edge(v);
        }
    }
    size_t kept = 0;
    for (const int v : queue_) {
        if (label_[in_blossom_[v]] == 1) {
            queue_[kept++] = v;
        }
    }
    queue_.resize(kept);
}

void
MaxWeightMatching::scan_vertex(int v)
{
    // Follow every edge of S-vertex v: grow, shrink or augment over
    // tight ones, record least-slack candidates for the others. Stops
    // early when an augmentation dissolves v's tree.
    for (int i = adj_begin_[v]; i < adj_begin_[v + 1]; ++i) {
        const int p = adj_[i];
        const int k = p >> 1;
        const int w = endpoint_[p];
        if (in_blossom_[v] == in_blossom_[w]) {
            continue;  // internal to a blossom
        }
        int64_t kslack = 0;
        if (!allow_edge_[k]) {
            kslack = slack(k);
            if (kslack <= 0) {
                allow_edge_[k] = 1;
            }
        }
        if (allow_edge_[k]) {
            if (label_[in_blossom_[w]] == 0) {
                assign_label(w, 2, p ^ 1);  // grow
            } else if (label_[in_blossom_[w]] == 1) {
                const int base = scan_blossom(v, w);
                if (base >= 0) {
                    add_blossom(base, k);
                } else {
                    const int r1 = tree_root_[in_blossom_[v]];
                    const int r2 = tree_root_[in_blossom_[w]];
                    augment_matching(k);
                    dissolve_trees(r1, r2);
                    return;
                }
            } else if (label_[w] == 0) {
                // w is inside a T-blossom but not yet reached.
                BTWC_DCHECK(label_[in_blossom_[w]] == 2);
                label_[w] = 2;
                label_end_[w] = p ^ 1;
            }
        } else if (label_[in_blossom_[w]] == 1) {
            const int b = in_blossom_[v];
            if (best_edge_[b] == -1 || kslack < slack(best_edge_[b])) {
                best_edge_[b] = k;
            }
        } else if (label_[w] == 0) {
            if (best_edge_[w] == -1 || kslack < slack(best_edge_[w])) {
                best_edge_[w] = k;
            }
        }
    }
}

int
MaxWeightMatching::valid_best_edge(int b)
{
    // The least-slack edge of vertex-or-blossom b, re-derived when it
    // no longer leads to another top-level S-blossom: its far end was
    // in a dissolved tree.
    const int k = best_edge_[b];
    if (k != -1) {
        const int u = endpoint_[2 * k];
        const int bu = in_blossom_[u];
        const int far =
            u == b || bu == b ? in_blossom_[endpoint_[2 * k + 1]] : bu;
        if (far == b || label_[far] != 1) {
            rebuild_best_edge(b);
        }
    }
    return best_edge_[b];
}

void
MaxWeightMatching::run()
{
    // One stage: every vertex starts exposed and roots a tree. An
    // augmentation dissolves only the two trees it joins; the others
    // keep their labels, so every exposed vertex stays the root of a
    // live tree and the stage lasts until the dual step of type 1
    // ends the solve.
    ++stages_;
    for (int v = 0; v < n_; ++v) {
        assign_label(v, 1, -1);
    }
    for (;;) {
        while (!queue_.empty()) {
            const int v = queue_.back();
            queue_.pop_back();
            BTWC_DCHECK(label_[in_blossom_[v]] == 1);
            scan_vertex(v);
        }

        // No tight edge left to follow: pick the dual step, the least
        // of the smallest vertex dual (type 1, which wins ties and ends
        // the solve with every exposed vertex at dual zero), the slack
        // of an edge from a free vertex to an S-vertex (type 2), half
        // the slack of an edge between S-blossoms (type 3) and the
        // dual of a T-blossom (type 4). Least-slack edges that lead
        // into a dissolved tree are re-derived first; no dual step has
        // run since it dissolved, so an edge that still leads to an
        // S-blossom is still least among its owner's.
        const bool blossoms = has_blossoms();
        const int64_t none = std::numeric_limits<int64_t>::max();
        int64_t min_dual = none;
        int64_t min_edge = none;
        int64_t min_t_dual = none;
        int delta_blossom = -1;
        candidates_.clear();
        auto offer = [&](int k, int64_t d) {
            candidates_.push_back({d, k});
            min_edge = std::min(min_edge, d);
        };
        for (int v = 0; v < n_; ++v) {
            min_dual = std::min(min_dual, dual_[v]);
            const int b = in_blossom_[v];
            const int l = label_[b];
            if (l == 1 && b != v) {
                continue;  // its blossom holds the S-blossom's edge
            }
            const int k = valid_best_edge(v);
            if (k == -1 || l == 2) {
                continue;  // a T-vertex's edge matters after expansion
            }
            BTWC_DCHECK(l == 0 || slack(k) % 2 == 0);
            offer(k, l == 0 ? slack(k) : slack(k) / 2);
        }
        for (int b = n_; blossoms && b < 2 * n_; ++b) {
            if (blossom_base_[b] < 0 || blossom_parent_[b] != -1) {
                continue;
            }
            if (label_[b] == 1 && valid_best_edge(b) != -1) {
                offer(best_edge_[b], slack(best_edge_[b]) / 2);
            } else if (label_[b] == 2 && dual_[b] < min_t_dual) {
                min_t_dual = dual_[b];
                delta_blossom = b;
            }
        }
        // Ties go to type 1, then to edges, then to the lowest
        // T-blossom.
        const int64_t delta = std::min({min_dual, min_edge, min_t_dual});
        if (min_t_dual >= std::min(min_dual, min_edge)) {
            delta_blossom = -1;
        }

        for (int v = 0; delta > 0 && v < n_; ++v) {
            const int l = label_[in_blossom_[v]];
            if (l == 1) {
                dual_[v] -= delta;
            } else if (l == 2) {
                dual_[v] += delta;
            }
        }
        for (int b = n_; blossoms && delta > 0 && b < 2 * n_; ++b) {
            if (blossom_base_[b] >= 0 && blossom_parent_[b] == -1) {
                if (label_[b] == 1) {
                    dual_[b] += delta;
                } else if (label_[b] == 2) {
                    dual_[b] -= delta;
                }
            }
        }

        if (delta == min_dual) {
            return;  // type 1
        }
        if (delta_blossom >= 0) {
            expand_blossom(delta_blossom, false);  // type 4
            continue;
        }
        // Follow every least-slack edge the step made tight, not just
        // one: with unit costs many tie. The queue is a stack, so
        // pushing in reverse scans them in vertex order.
        for (auto it = candidates_.rbegin(); it != candidates_.rend(); ++it) {
            const int k = it->second;
            if (it->first == delta) {
                allow_edge_[k] = 1;
                const int i = endpoint_[2 * k];
                queue_.push_back(label_[in_blossom_[i]] == 1
                                     ? i
                                     : endpoint_[2 * k + 1]);
            }
        }
    }
}

const std::vector<int> &
MaxWeightMatching::solve()
{
    const AuditLevel audit = audit_level();
    const size_t n = static_cast<size_t>(n_);
    const size_t n2 = 2 * n;
    const size_t m = weight_.size();
    if (audit >= AuditLevel::Basic) {
        for (size_t k = 0; k < m; ++k) {
            const int u = endpoint_[2 * k];
            const int v = endpoint_[2 * k + 1];
            BTWC_CHECK(u != v && u >= 0 && v >= 0 && u < n_ && v < n_);
        }
    }
    build_adjacency();

    // Re-arm every per-run array over the active region only.
    if (blossom_childs_.size() < n2) {
        blossom_childs_.resize(n2);
        blossom_endps_.resize(n2);
        blossom_best_.resize(n2);
    }
    int64_t max_weight = 0;
    for (const int64_t w : weight_) {
        max_weight = std::max(max_weight, w);
    }
    mate_.assign(n, -1);
    in_blossom_.resize(n);
    label_.assign(n2, 0);
    label_end_.assign(n2, -1);
    blossom_parent_.assign(n2, -1);
    blossom_base_.resize(n2);
    best_edge_.assign(n2, -1);
    tree_root_.resize(n2);
    dual_.resize(n2);
    has_blossom_best_.assign(n2, 0);
    best_edge_to_.resize(n2);
    allow_edge_.assign(m, 0);
    queue_.clear();
    unused_blossoms_.clear();
    for (int v = 0; v < n_; ++v) {
        in_blossom_[v] = v;
        blossom_base_[v] = v;
        dual_[v] = max_weight;
    }
    for (int b = n_; b < 2 * n_; ++b) {
        blossom_base_[b] = -1;
        dual_[b] = 0;
        blossom_childs_[b].clear();
        blossom_endps_[b].clear();
        unused_blossoms_.push_back(b);
    }

    if (n_ > 0) {
        run();
    }

    total_weight_ = 0;
    mate_vertex_.assign(n, -1);
    for (int v = 0; v < n_; ++v) {
        if (mate_[v] >= 0) {
            mate_vertex_[v] = endpoint_[mate_[v]];
            if (v < mate_vertex_[v]) {
                total_weight_ += weight_[mate_[v] >> 1];
            }
        }
    }
    if (audit >= AuditLevel::Deep) {
        audit_optimum();
    }
    return mate_vertex_;
}

void
MaxWeightMatching::audit_optimum() const
{
    const int m = static_cast<int>(weight_.size());
    BTWC_CHECK_MSG(static_cast<int>(mate_.size()) == n_ &&
                       static_cast<int>(mate_vertex_.size()) == n_,
                   "matcher audit needs a solved instance");
    for (int b = 0; b < 2 * n_; ++b) {
        BTWC_CHECK_MSG(dual_[b] >= 0, "duals must be non-negative");
    }
    for (int v = 0; v < n_; ++v) {
        const int p = mate_[v];
        if (p < 0) {
            BTWC_CHECK_MSG(dual_[v] == 0,
                           "an exposed vertex must have a zero dual");
            continue;
        }
        BTWC_CHECK_MSG(p < 2 * m && mate_[endpoint_[p]] == (p ^ 1) &&
                           endpoint_[p ^ 1] == v,
                       "mates must be mutual and lie on an edge");
    }
    // Blossoms holding both ends of an edge add 2 * their dual to its
    // slack; they form a common top part of the two ancestor chains.
    std::vector<int> chain_u;
    std::vector<int> chain_v;
    for (int k = 0; k < m; ++k) {
        const int u = endpoint_[2 * k];
        const int v = endpoint_[2 * k + 1];
        int64_t s = dual_[u] + dual_[v] - 2 * weight_[k];
        chain_u.assign(1, u);
        chain_v.assign(1, v);
        while (blossom_parent_[chain_u.back()] != -1) {
            chain_u.push_back(blossom_parent_[chain_u.back()]);
        }
        while (blossom_parent_[chain_v.back()] != -1) {
            chain_v.push_back(blossom_parent_[chain_v.back()]);
        }
        auto iu = chain_u.rbegin();
        auto iv = chain_v.rbegin();
        for (; iu != chain_u.rend() && iv != chain_v.rend() && *iu == *iv;
             ++iu, ++iv) {
            s += 2 * dual_[*iu];
        }
        BTWC_CHECK_MSG(s >= 0, "every edge slack must be non-negative");
        const bool matched_u = mate_[u] >= 0 && (mate_[u] >> 1) == k;
        const bool matched_v = mate_[v] >= 0 && (mate_[v] >> 1) == k;
        if (matched_u || matched_v) {
            BTWC_CHECK_MSG(matched_u && matched_v,
                           "a matched edge must be matched at both ends");
            BTWC_CHECK_MSG(s == 0, "every matched edge must be tight");
        }
    }
    for (int b = n_; b < 2 * n_; ++b) {
        if (blossom_base_[b] < 0 || dual_[b] <= 0) {
            continue;
        }
        const std::vector<int> &endps = blossom_endps_[b];
        BTWC_CHECK_MSG(endps.size() % 2 == 1,
                       "a blossom is an odd cycle");
        for (size_t i = 1; i < endps.size(); i += 2) {
            const int p = endps[i];
            BTWC_CHECK_MSG(mate_[endpoint_[p]] == (p ^ 1) &&
                               mate_[endpoint_[p ^ 1]] == p,
                           "a blossom with a positive dual must be full");
        }
    }
}

std::vector<int>
min_weight_perfect_matching(int n,
                            const std::vector<std::vector<int64_t>> &weights)
{
    BTWC_CHECK(n % 2 == 0);
    if (n == 0) {
        return {};
    }
    int64_t max_w = 0;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            max_w = std::max(max_w, weights[u][v]);
        }
    }
    const int64_t offset = static_cast<int64_t>(n / 2) * max_w + 1;
    MaxWeightMatching solver(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (weights[u][v] >= 0) {
                solver.add_edge(u, v, offset - weights[u][v]);
            }
        }
    }
    std::vector<int> mate = solver.solve();
    for (int u = 0; u < n; ++u) {
        if (mate[u] < 0) {
            return {};
        }
    }
    return mate;
}

} // namespace btwc
