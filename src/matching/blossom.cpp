#include "matching/blossom.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace btwc {

namespace {

/** Due key of an owner without a dual-step candidate. */
constexpr int64_t kNoDue = std::numeric_limits<int64_t>::max();

} // namespace

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
    dual_steps_ = 0;
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
MaxWeightMatching::assign_label(int w, int p)
{
    // Label the top-level blossom of w T through endpoint p, which
    // propagates an S label to the mate of the blossom's base. Both
    // join the tree of the S-vertex at endpoint p.
    const int root = tree_root_[in_blossom_[endpoint_[p]]];
    std::vector<int> &members = tree_members_[root];
    for (int t = 2;; t = 1) {
        const int b = in_blossom_[w];
        BTWC_DCHECK(label_[w] == 0 && label_[b] == 0);
        label_[w] = label_[b] = t;
        label_end_[w] = label_end_[b] = p;
        best_edge_[w] = best_edge_[b] = -1;
        tree_root_[b] = root;
        if (b >= n_) {
            touch(b);  // a vertex is touched as its own leaf
        }
        auto join = [this, &members, t](int v) {
            members.push_back(v);
            touch(v);
            if (t == 1) {
                queue_.push_back(v);
            }
        };
        for_each_leaf(b, join);
        if (t == 1) {
            return;
        }
        const int mate_end = mate_[blossom_base_[b]];
        BTWC_DCHECK(mate_end >= 0);
        w = endpoint_[mate_end];
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
    blossom_lo_ = std::min(blossom_lo_, b);
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
        touch(leaf);
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
        touch(child);
    }
    std::vector<int> &best = blossom_best_[b];
    best.clear();
    for (int i = 0; i < 2 * n_; ++i) {
        if (best_edge_to_[i] != -1) {
            best.push_back(best_edge_to_[i]);
        }
    }
    has_blossom_best_[b] = 1;
    int best_k = -1;
    int64_t best_slack = 0;
    for (const int e : best) {
        const int64_t es = slack(e);
        if (best_k == -1 || es < best_slack) {
            best_k = e;
            best_slack = es;
        }
    }
    best_edge_[b] = best_k;
    touch(b);
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
        touch(s);
        if (s < n_) {
            in_blossom_[s] = s;
        } else if (dissolving && dual_[s] == 0) {
            expand_blossom(s, true);
        } else {
            auto own = [this, s](int leaf) {
                in_blossom_[leaf] = s;
                touch(leaf);
            };
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
            assign_label(endpoint_[p ^ 1], p);
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
                assign_label(v, label_end_[v]);
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
    touch(b);
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
    touch(b);
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
    has_blossom_best_[b] = 0;
    int best_k = -1;
    int64_t best_slack = 0;
    auto scan = [this, b, &best_k, &best_slack](int leaf) {
        for (int i = adj_begin_[leaf]; i < adj_begin_[leaf + 1]; ++i) {
            const int w = endpoint_[adj_[i]];
            const int bw = in_blossom_[w];
            if (bw == b || label_[bw] != 1) {
                continue;
            }
            const int k = adj_[i] >> 1;
            const int64_t ks = dual_[leaf] + dual_[w] - 2 * weight_[k];
            if (best_k == -1 || ks < best_slack) {
                best_k = k;
                best_slack = ks;
            }
        }
    };
    for_each_leaf(b, scan);
    best_edge_[b] = best_k;
}

void
MaxWeightMatching::dissolve_trees(int r1, int r2)
{
    // An augmentation joined the trees rooted at r1 and r2. Their
    // vertices become free; every other tree keeps growing. The member
    // lists may name a vertex twice, or one that left for another tree
    // or became free: keep the labelled members of the two trees once,
    // in ascending order, since expansion order decides which blossom
    // ids are reused.
    freed_.clear();
    for (const int r : {r1, r2}) {
        for (const int v : tree_members_[r]) {
            const int b = in_blossom_[v];
            if (label_[b] != 0 &&
                (tree_root_[b] == r1 || tree_root_[b] == r2)) {
                freed_.push_back(v);
            }
        }
        tree_members_[r].clear();
    }
    std::sort(freed_.begin(), freed_.end());
    freed_.erase(std::unique(freed_.begin(), freed_.end()), freed_.end());
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
    // their least-slack edge to an S-vertex (rebuild_best_edge, in the
    // same pass). Labels elsewhere were never derived from the
    // dissolved trees, except the vertex labels inside T-blossoms
    // reached from them (cleared here) and least-slack edges into
    // them: their owners are touched, and the next dual step
    // re-derives the edges that no longer lead to an S-blossom.
    for (const int v : freed_) {
        int best_k = -1;
        int64_t best_slack = 0;
        for (int i = adj_begin_[v]; i < adj_begin_[v + 1]; ++i) {
            const int k = adj_[i] >> 1;
            allow_edge_[k] = 0;
            const int w = endpoint_[adj_[i]];
            const int bw = in_blossom_[w];
            if (best_edge_[w] == k) {
                touch(w);
            }
            if (best_edge_[bw] == k) {
                touch(bw);
            }
            if (label_[bw] == 1) {
                const int64_t ks = dual_[v] + dual_[w] - 2 * weight_[k];
                if (best_k == -1 || ks < best_slack) {
                    best_k = k;
                    best_slack = ks;
                }
            } else if (label_[w] == 2 && label_[bw] == 2 &&
                       label_[in_blossom_[endpoint_[label_end_[w]]]] != 1) {
                label_[w] = 0;  // reached from a dissolved tree
                rebuild_best_edge(w);
                touch(w);
            }
        }
        best_edge_[v] = best_k;
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
            kslack = dual_[v] + dual_[w] - 2 * weight_[k];
            if (kslack <= 0) {
                allow_edge_[k] = 1;
            }
        }
        if (allow_edge_[k]) {
            if (label_[in_blossom_[w]] == 0) {
                assign_label(w, p ^ 1);  // grow
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
                touch(b);
            }
        } else if (label_[w] == 0) {
            if (best_edge_[w] == -1 || kslack < slack(best_edge_[w])) {
                best_edge_[w] = k;
                touch(w);
            }
        }
    }
}

bool
MaxWeightMatching::holds_best_edge(int o) const
{
    // A free or T vertex, a top-level S-vertex and a top-level
    // S-blossom keep a least-slack edge; an S-blossom's leaves leave
    // it to their blossom.
    if (o < n_) {
        return label_[in_blossom_[o]] != 1 || in_blossom_[o] == o;
    }
    return blossom_base_[o] >= 0 && blossom_parent_[o] == -1 &&
           label_[o] == 1;
}

bool
MaxWeightMatching::best_edge_stale(int o) const
{
    // The least-slack edge of owner o no longer leads to another
    // top-level S-blossom: its far end was in a dissolved tree.
    const int k = best_edge_[o];
    if (k == -1) {
        return false;
    }
    const int u = endpoint_[2 * k];
    const int bu = in_blossom_[u];
    const int far = u == o || bu == o ? in_blossom_[endpoint_[2 * k + 1]] : bu;
    return far == o || label_[far] != 1;
}

void
MaxWeightMatching::derive_owner(int o, int64_t *sign, int64_t *due) const
{
    // The dual-step candidate of owner o and the sign its dual moves
    // by: the slack of a free owner's least-slack edge to an
    // S-blossom (type 2), half that of an S owner's (type 3), the dual
    // of a T-blossom (type 4), each as a due time D + bound.
    *sign = 0;
    *due = kNoDue;
    if (o < n_) {
        const int b = in_blossom_[o];
        const int l = label_[b];
        *sign = l == 1 ? -1 : (l == 2 ? 1 : 0);
        const int k = best_edge_[o];
        if (k == -1 || l == 2 || (l == 1 && b != o)) {
            return;  // a T-vertex's edge matters after expansion
        }
        BTWC_DCHECK(l == 0 || slack(k) % 2 == 0);
        *due = 2 * (delta_sum_ + (l == 0 ? slack(k) : slack(k) / 2));
    } else if (blossom_base_[o] >= 0 && blossom_parent_[o] == -1) {
        if (label_[o] == 1) {
            *sign = 1;
            const int k = best_edge_[o];
            if (k != -1) {
                *due = 2 * (delta_sum_ + slack(k) / 2);
            }
        } else if (label_[o] == 2) {
            *sign = -1;
            *due = 2 * (delta_sum_ + dual_[o]) + 1;
        }
    }
}

void
MaxWeightMatching::settle_owners()
{
    // Re-derive every touched owner: a least-slack edge that no longer
    // leads to an S-blossom is rebuilt first. No dual step has run
    // since it went stale, so an edge that still leads to one is still
    // least among its owner's.
    for (const int o : touched_) {
        touched_flag_[o] = 0;
        if (holds_best_edge(o) && best_edge_stale(o)) {
            rebuild_best_edge(o);
        }
        derive_owner(o, &sign_[o], &due_[o]);
    }
    touched_.clear();
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
        label_[v] = 1;
        tree_root_[v] = v;
        tree_members_[v].assign(1, v);
        touch(v);
        queue_.push_back(v);
    }
    const bool deep = audit_level() >= AuditLevel::Deep;
    for (;;) {
        while (!queue_.empty()) {
            const int v = queue_.back();
            queue_.pop_back();
            BTWC_DCHECK(label_[in_blossom_[v]] == 1);
            scan_vertex(v);
        }

        // No tight edge left to follow: pick the dual step, the least
        // of the smallest vertex dual (type 1, which wins ties and ends
        // the solve with every exposed vertex at dual zero) and the
        // owners' candidates (edges win ties over T-blossoms, whose
        // keys are odd).
        settle_owners();
        // Blossom ids are taken from the top down, so the ids below
        // the lowest one taken hold no candidate and no dual.
        const int lo = blossom_lo_;
        const int end = 2 * n_;
        int64_t min_due = kNoDue;
        for (int v = 0; v < n_; ++v) {
            min_due = std::min(min_due, due_[v]);
        }
        for (int b = lo; b < end; ++b) {
            min_due = std::min(min_due, due_[b]);
        }
        if (deep) {
            audit_owners();
            audit_dual_step(min_due);
        }
        ++dual_steps_;
        const int64_t next = std::min(max_weight_, min_due / 2);
        const int64_t delta = next - delta_sum_;
        for (int v = 0; v < n_; ++v) {
            dual_[v] += sign_[v] * delta;
        }
        for (int b = lo; b < end; ++b) {
            dual_[b] += sign_[b] * delta;
        }
        delta_sum_ = next;

        if (next == max_weight_) {
            return;  // type 1
        }
        if (min_due & 1) {
            // Type 4: the lowest T-blossom whose dual reached zero.
            const int b = static_cast<int>(
                std::find(due_.begin() + lo, due_.begin() + end, min_due) -
                due_.begin());
            expand_blossom(b, false);
            continue;
        }
        // Follow every least-slack edge the step made tight, not just
        // one: with unit costs many tie. The queue is a stack, so
        // pushing in reverse scans them in owner order.
        auto follow = [this, min_due](int o) {
            if (due_[o] == min_due) {
                const int k = best_edge_[o];
                allow_edge_[k] = 1;
                const int i = endpoint_[2 * k];
                queue_.push_back(label_[in_blossom_[i]] == 1
                                     ? i
                                     : endpoint_[2 * k + 1]);
            }
        };
        for (int b = end - 1; b >= lo; --b) {
            follow(b);
        }
        for (int v = n_ - 1; v >= 0; --v) {
            follow(v);
        }
    }
}

void
MaxWeightMatching::audit_owners() const
{
    // Re-derive every owner by a full sweep: no least-slack edge an
    // owner keeps may be stale once the owners are settled, and every
    // due time and sign must match the maintained ones.
    BTWC_CHECK_MSG(touched_.empty(), "matcher audit needs settled owners");
    for (int o = 0; o < 2 * n_; o = o == n_ - 1 ? blossom_lo_ : o + 1) {
        BTWC_CHECK_MSG(!holds_best_edge(o) || !best_edge_stale(o),
                       "a least-slack edge into a dissolved tree was "
                       "not re-derived");
        int64_t sign = 0;
        int64_t due = 0;
        derive_owner(o, &sign, &due);
        BTWC_CHECK_MSG(due == due_[o], "an owner's due time is out of date");
        BTWC_CHECK_MSG(sign == sign_[o], "an owner's dual sign is out of date");
    }
}

void
MaxWeightMatching::audit_dual_step(int64_t min_due) const
{
    // The step the sweep over every vertex and blossom would take: the
    // smallest vertex dual, every owner's bound from its slack or
    // dual, ties to type 1, then to edges in owner order, then to the
    // lowest T-blossom. The maintained due times must select the same
    // delta, type and followed edges.
    const int64_t none = std::numeric_limits<int64_t>::max();
    int64_t min_dual = none;
    int64_t min_edge = none;
    int64_t min_t_dual = none;
    int delta_blossom = -1;
    bool exposed = false;
    std::vector<std::pair<int64_t, int>> offers;
    for (int v = 0; v < n_; ++v) {
        min_dual = std::min(min_dual, dual_[v]);
        exposed = exposed || mate_[v] < 0;
        const int l = label_[in_blossom_[v]];
        const int k = best_edge_[v];
        if ((l == 1 && in_blossom_[v] != v) || k == -1 || l == 2) {
            continue;
        }
        offers.push_back({l == 0 ? slack(k) : slack(k) / 2, k});
    }
    for (int b = n_; b < 2 * n_; ++b) {
        if (blossom_base_[b] < 0 || blossom_parent_[b] != -1) {
            continue;
        }
        if (label_[b] == 1 && best_edge_[b] != -1) {
            offers.push_back({slack(best_edge_[b]) / 2, best_edge_[b]});
        } else if (label_[b] == 2 && dual_[b] < min_t_dual) {
            min_t_dual = dual_[b];
            delta_blossom = b;
        }
    }
    for (const auto &offer : offers) {
        min_edge = std::min(min_edge, offer.first);
    }
    const int64_t delta = std::min({min_dual, min_edge, min_t_dual});
    if (min_t_dual >= std::min(min_dual, min_edge)) {
        delta_blossom = -1;
    }

    const int64_t next = std::min(max_weight_, min_due / 2);
    const bool type1 = next == max_weight_;
    BTWC_CHECK_MSG(type1 == (delta == min_dual),
                   "the due times missed a type-1 dual step");
    // With no exposed vertex left the smallest dual is no root's and
    // the (label-free) step moves nothing.
    BTWC_CHECK_MSG(!exposed || next - delta_sum_ == delta,
                   "the due times select another dual step");
    if (type1) {
        return;
    }
    const bool t_step = (min_due & 1) != 0;
    BTWC_CHECK_MSG(t_step == (delta_blossom >= 0),
                   "the due times select another dual-step type");
    if (t_step) {
        BTWC_CHECK_MSG(due_[delta_blossom] == min_due &&
                           std::find(due_.begin() + blossom_lo_,
                                     due_.begin() + 2 * n_, min_due) ==
                               due_.begin() + delta_blossom,
                       "the due times expand another T-blossom");
        return;
    }
    size_t i = 0;
    for (int o = 0; o < 2 * n_; o = o == n_ - 1 ? blossom_lo_ : o + 1) {
        if (due_[o] != min_due) {
            continue;
        }
        while (i < offers.size() && offers[i].first != delta) {
            ++i;
        }
        BTWC_CHECK_MSG(i < offers.size() && offers[i].second == best_edge_[o],
                       "the due times follow other edges");
        ++i;
    }
    while (i < offers.size() && offers[i].first != delta) {
        ++i;
    }
    BTWC_CHECK_MSG(i == offers.size(), "the due times missed a tight edge");
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
    max_weight_ = 0;
    for (const int64_t w : weight_) {
        max_weight_ = std::max(max_weight_, w);
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
    // Every vertex is touched when it roots its tree and every blossom
    // id from blossom_lo_ up when it is taken, so due times and signs
    // are settled before a dual step reads them.
    due_.resize(n2);
    sign_.resize(n2);
    // A solve leaves no owner touched unless an audit threw mid-run.
    for (const int o : touched_) {
        touched_flag_[o] = 0;
    }
    touched_.clear();
    touched_flag_.resize(n2);
    delta_sum_ = 0;
    blossom_lo_ = 2 * n_;
    if (tree_members_.size() < n) {
        tree_members_.resize(n);
    }
    queue_.clear();
    unused_blossoms_.clear();
    for (int v = 0; v < n_; ++v) {
        in_blossom_[v] = v;
        blossom_base_[v] = v;
        dual_[v] = max_weight_;
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
